package octree

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"pvoronoi/internal/geom"
	"pvoronoi/internal/pagestore"
)

// readLeafPage decodes one leaf page into fresh entries.
func (t *Tree) readLeafPage(id pagestore.PageID) (next pagestore.PageID, entries []Entry, err error) {
	buf, err := t.store.View(id)
	if err != nil {
		return 0, nil, err
	}
	next, entries = t.decodeLeafPage(buf, nil)
	return next, entries, nil
}

// structuralHash folds the whole tree — pre-order over nodes: depth, leaf or
// internal, a leaf's page count and its chain's entries (ID and region bits)
// in chain order — then size, memory used and split count into one FNV-64a
// value. Page IDs are left out: two trees hash equal when every split,
// placement and chain decision that built them was the same.
func structuralHash(t *testing.T, tree *Tree) uint64 {
	t.Helper()
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	var walk func(n *node)
	walk = func(n *node) {
		put(uint64(n.depth))
		if n.children != nil {
			put(1)
			for _, c := range n.children {
				walk(c)
			}
			return
		}
		put(0)
		put(uint64(n.pages))
		for p := n.firstPage; p != 0; {
			next, entries, err := tree.readLeafPage(p)
			if err != nil {
				t.Fatal(err)
			}
			put(uint64(len(entries)))
			for _, e := range entries {
				put(uint64(e.ID))
				for k := range e.Region.Lo {
					put(math.Float64bits(e.Region.Lo[k]))
					put(math.Float64bits(e.Region.Hi[k]))
				}
			}
			p = next
		}
	}
	walk(tree.root)
	put(uint64(tree.size))
	put(uint64(tree.memUsed))
	put(uint64(tree.SplitCount))
	return h.Sum64()
}

func newBulkTestTree(t *testing.T, d, pageSize, memBudget, maxDepth int, lookup UBRLookup) *Tree {
	t.Helper()
	tree, err := New(Config{
		Domain:    geom.UnitCube(d, 1000),
		Store:     pagestore.New(pageSize),
		Lookup:    lookup,
		MemBudget: memBudget,
		MaxDepth:  maxDepth,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// bulkItems draws n items in [0, 1000]^d: uniform, clustered around four
// centres, or all sharing one small UBR (a pile that only MaxDepth stops). A
// few UBRs reach past the domain and a few miss it entirely.
func bulkItems(rng *rand.Rand, shape string, d, n int) []BulkItem {
	items := make([]BulkItem, n)
	centres := make([]geom.Point, 4)
	for i := range centres {
		centres[i] = randSubRect(rng, 1000, 0, d).Lo
	}
	pile := randSubRect(rng, 1000, 3, d)
	for i := range items {
		u, ubr := pile, pile
		switch shape {
		case "uniform":
			u = randSubRect(rng, 1000, 20, d)
			ubr = u.Expand(rng.Float64() * 15)
		case "clustered":
			c := centres[rng.Intn(len(centres))]
			lo := make(geom.Point, d)
			for k := range lo {
				lo[k] = c[k] + rng.NormFloat64()*60
			}
			u = geom.Rect{Lo: lo, Hi: lo}.Expand(rng.Float64() * 5)
			ubr = u.Expand(rng.Float64() * 10)
		}
		if shape != "coincident" && i%97 == 5 {
			for k := range ubr.Lo { // wholly outside the domain
				ubr.Lo[k] += 2000
				ubr.Hi[k] += 2000
			}
		}
		items[i] = BulkItem{Entry: Entry{ID: uint32(i), Region: u}, UBR: ubr}
	}
	return items
}

// TestBulkLoadMatchesInsert: with a budget that does not bind, BulkLoad
// builds the tree Insert builds from the same items in order — node for
// node, entry for entry, page for page — and the two stay equal through
// further inserts and removals.
func TestBulkLoadMatchesInsert(t *testing.T) {
	for _, d := range []int{1, 2, 3, 4} {
		for _, shape := range []string{"uniform", "clustered", "coincident"} {
			for _, pageSize := range []int{256, 4096} {
				t.Run(fmt.Sprintf("d%d/%s/page%d", d, shape, pageSize), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(100*d + pageSize)))
					items := bulkItems(rng, shape, d, 600)
					ubrs := map[uint32]geom.Rect{}
					lookup := func(id uint32) (geom.Rect, bool) { r, ok := ubrs[id]; return r, ok }
					maxDepth := 9 - d // keeps the pile's deep leaves few at d = 4
					inserted := newBulkTestTree(t, d, pageSize, 1<<30, maxDepth, lookup)
					for _, it := range items {
						ubrs[it.ID] = it.UBR
						if err := inserted.Insert(it.ID, it.Region, it.UBR); err != nil {
							t.Fatal(err)
						}
					}
					bulk := newBulkTestTree(t, d, pageSize, 1<<30, maxDepth, lookup)
					if err := bulk.BulkLoad(items); err != nil {
						t.Fatal(err)
					}
					if err := bulk.Validate(); err != nil {
						t.Fatal(err)
					}
					want, got := structuralHash(t, inserted), structuralHash(t, bulk)
					if got != want {
						t.Fatalf("bulk-loaded tree %+v hashes %#x, inserted tree %+v %#x", bulk.TreeStats(), got, inserted.TreeStats(), want)
					}
					st := bulk.TreeStats()
					if st.Internal == 0 || (shape == "coincident" && st.MaxDepth != maxDepth) {
						t.Fatalf("case exercises too little: %+v", st)
					}
					if shape == "coincident" && st.Pages <= st.Leaves {
						t.Fatalf("coincident UBRs never chained at MaxDepth: %+v", st)
					}

					more := bulkItems(rng, shape, d, 50)
					for i := range more {
						more[i].ID += 10_000
						ubrs[more[i].ID] = more[i].UBR
					}
					for _, tree := range []*Tree{inserted, bulk} {
						for _, it := range more {
							if err := tree.Insert(it.ID, it.Region, it.UBR); err != nil {
								t.Fatal(err)
							}
						}
						for _, it := range items[:200] {
							if _, err := tree.Remove(it.ID, it.UBR); err != nil {
								t.Fatal(err)
							}
						}
					}
					if got, want := structuralHash(t, bulk), structuralHash(t, inserted); got != want {
						t.Fatalf("after inserts and removals: bulk-loaded tree hashes %#x, inserted tree %#x", got, want)
					}
				})
			}
		}
	}
}

// TestBulkLoadBindingBudget: when the budget binds, BulkLoad grants it in
// level order. The tree validates, every entry whose UBR holds a query point
// is in that point's leaf, and no leaf above MaxDepth had to chain while an
// internal node deeper than it was granted a split.
func TestBulkLoadBindingBudget(t *testing.T) {
	for _, d := range []int{2, 3} {
		for _, shape := range []string{"uniform", "clustered"} {
			t.Run(fmt.Sprintf("d%d/%s", d, shape), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(7 + d)))
				items := bulkItems(rng, shape, d, 800)
				const maxDepth = 12
				tree := newBulkTestTree(t, d, 256, 3000, maxDepth, nil)
				if err := tree.BulkLoad(items); err != nil {
					t.Fatal(err)
				}
				if err := tree.Validate(); err != nil {
					t.Fatal(err)
				}
				if tree.memUsed+nodeBytes(d) <= tree.memBudget {
					t.Fatalf("budget never bound: %d of %d bytes used", tree.memUsed, tree.memBudget)
				}

				deepestInternal, shallowestChained := -1, math.MaxInt
				var walk func(n *node)
				walk = func(n *node) {
					switch {
					case n.children != nil:
						deepestInternal = max(deepestInternal, n.depth)
						for _, c := range n.children {
							walk(c)
						}
					case n.pages > 1 && n.depth < maxDepth:
						shallowestChained = min(shallowestChained, n.depth)
					}
				}
				walk(tree.root)
				if shallowestChained == math.MaxInt {
					t.Fatal("no leaf chained for lack of budget")
				}
				if deepestInternal > shallowestChained {
					t.Fatalf("a leaf chained at depth %d while a split was granted at depth %d", shallowestChained, deepestInternal)
				}

				for q := 0; q < 200; q++ {
					p := make(geom.Point, d)
					for k := range p {
						p[k] = rng.Float64() * 1000
					}
					ids := queryIDs(t, tree, p)
					found := map[uint32]bool{}
					for _, id := range ids {
						found[id] = true
					}
					for _, it := range items {
						if it.UBR.Contains(p) && !found[it.ID] {
							t.Fatalf("item %d (UBR %v) missing from the leaf of %v", it.ID, it.UBR, p)
						}
					}
				}
			})
		}
	}
}

func TestBulkLoadRefusesNonEmptyTree(t *testing.T) {
	tree := newBulkTestTree(t, 2, 256, 1<<20, 8, nil)
	u := geom.NewRect(geom.Point{1, 1}, geom.Point{2, 2})
	if err := tree.Insert(1, u, u); err != nil {
		t.Fatal(err)
	}
	if err := tree.BulkLoad([]BulkItem{{Entry: Entry{ID: 2, Region: u}, UBR: u}}); err == nil {
		t.Fatal("BulkLoad on a tree holding an entry succeeded")
	}
}
