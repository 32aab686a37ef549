package rtree

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"pvoronoi/internal/geom"
)

// bulkTestItems returns n seeded items of the given kind: "uniform" boxes,
// "clustered" boxes around a few centres, or "degenerate" — points,
// zero-extent slabs and exact duplicates.
func bulkTestItems(rng *rand.Rand, kind string, n, d int) []Item {
	items := make([]Item, n)
	var centres []geom.Point
	for c := 0; c < 5; c++ {
		p := make(geom.Point, d)
		for k := range p {
			p[k] = 100 + rng.Float64()*800
		}
		centres = append(centres, p)
	}
	for i := range items {
		r := randRect(rng, d, 1000, 20)
		switch kind {
		case "clustered":
			c := centres[rng.Intn(len(centres))]
			for k := range r.Lo {
				side := r.Hi[k] - r.Lo[k]
				r.Lo[k] = c[k] + rng.NormFloat64()*15
				r.Hi[k] = r.Lo[k] + side
			}
		case "degenerate":
			switch {
			case i > 0 && i%4 == 0:
				r = items[rng.Intn(i)].Rect // exact duplicate, different ID
			case i%4 == 1:
				r.Hi = r.Lo.Clone() // a point
			case i%4 == 2:
				r.Hi[rng.Intn(d)] = r.Lo[rng.Intn(d)] // maybe a slab
				for k := range r.Lo {
					if r.Hi[k] < r.Lo[k] {
						r.Hi[k] = r.Lo[k]
					}
				}
			}
		}
		items[i] = Item{Rect: r, ID: uint32(i)}
	}
	return items
}

// browse returns the full NNIter sequence from q as parallel ID and
// distance slices.
func browse(t *Tree, q geom.Point, fn DistFunc) ([]uint32, []float64) {
	var ids []uint32
	var dists []float64
	it := NewNNIter(t, q, fn)
	for {
		item, d, ok := it.Next()
		if !ok {
			return ids, dists
		}
		ids = append(ids, item.ID)
		dists = append(dists, d)
	}
}

// TestBulkLoadMatchesInsertBuilt is the equivalence property: over the same
// items, a bulk-loaded tree satisfies every structural invariant and answers
// Search, PossibleNN and a full distance browse exactly as the R*-inserted
// tree does. Then the bulk-loaded tree serves as a sealed MVCC parent: 200
// mixed Insert/Delete on a CloneCOW keep the clone valid and leave the
// parent's contents untouched.
func TestBulkLoadMatchesInsertBuilt(t *testing.T) {
	for _, d := range []int{2, 3, 5} {
		for _, kind := range []string{"uniform", "clustered", "degenerate"} {
			t.Run(fmt.Sprintf("d%d-%s", d, kind), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(100*d + len(kind))))
				items := bulkTestItems(rng, kind, 1200, d)
				ins := New(d, 8)
				for _, it := range items {
					ins.Insert(it)
				}
				bulk := BulkLoad(d, 8, items)
				if err := bulk.checkInvariants(); err != nil {
					t.Fatalf("bulk-loaded tree: %v", err)
				}
				if bulk.Len() != len(items) {
					t.Fatalf("Len = %d, want %d", bulk.Len(), len(items))
				}
				for i := 0; i < 40; i++ {
					q := make(geom.Point, d)
					for k := range q {
						q[k] = rng.Float64() * 1000
					}
					window := geom.PointRect(q).Expand(40)
					bs, _ := bulk.Search(window, nil)
					is, _ := ins.Search(window, nil)
					if got, want := idSet(bs), idSet(is); !slices.Equal(got, want) {
						t.Fatalf("Search(%v): bulk %v, insert-built %v", window, got, want)
					}
					got, _ := bulk.PossibleNN(q)
					want, _ := ins.PossibleNN(q)
					if !slices.Equal(got, want) {
						t.Fatalf("PossibleNN(%v): bulk %v, insert-built %v", q, got, want)
					}
					if i%10 != 0 {
						continue
					}
					for _, fn := range []DistFunc{MinDistTo(q), CenterDistTo(q)} {
						gotIDs, gotD := browse(bulk, q, fn)
						wantIDs, wantD := browse(ins, q, fn)
						if !slices.Equal(gotD, wantD) {
							t.Fatalf("NNIter distance sequence from %v differs", q)
						}
						// Equal-distance items may come out in either order.
						slices.Sort(gotIDs)
						slices.Sort(wantIDs)
						if !slices.Equal(gotIDs, wantIDs) {
							t.Fatalf("NNIter from %v did not return every item once", q)
						}
					}
				}

				sealed := idSet(bulk.All(nil))
				clone := bulk.CloneCOW()
				live := slices.Clone(items)
				for i := 0; i < 200; i++ {
					if i%2 == 0 {
						j := rng.Intn(len(live))
						if !clone.Delete(live[j]) {
							t.Fatalf("step %d: delete of item %d failed", i, live[j].ID)
						}
						live = slices.Delete(live, j, j+1)
					} else {
						it := Item{Rect: randRect(rng, d, 1000, 20), ID: uint32(100_000 + i)}
						clone.Insert(it)
						live = append(live, it)
					}
					if err := clone.checkInvariants(); err != nil {
						t.Fatalf("step %d: clone: %v", i, err)
					}
				}
				if got := idSet(clone.All(nil)); !slices.Equal(got, idSet(live)) {
					t.Fatal("clone contents diverged from the applied updates")
				}
				if got := idSet(bulk.All(nil)); !slices.Equal(got, sealed) {
					t.Fatal("sealed bulk-loaded parent changed under clone mutation")
				}
				if err := bulk.checkInvariants(); err != nil {
					t.Fatalf("sealed parent after clone churn: %v", err)
				}
			})
		}
	}
}

// TestBulkLoadNodeFill checks, for every fanout and every size around the
// level boundaries, that packing never leaves a non-root node under
// minEntries or over the fanout (checkInvariants), and that no packed leaf
// is full: the first insert after a load must not split.
func TestBulkLoadNodeFill(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pool := bulkTestItems(rng, "uniform", 3000, 2)
	for fanout := 4; fanout <= 40; fanout++ {
		minE := New(2, fanout).minEntries
		sizes := []int{1, fanout, fanout + 1, 2*minE - 1, 2 * minE, 2*fanout + 1, fanout*fanout + 1, 3000}
		for n := fanout - 1; n <= 4*fanout; n++ {
			sizes = append(sizes, n)
		}
		for _, n := range sizes {
			tree := BulkLoad(2, fanout, pool[:n])
			if err := tree.checkInvariants(); err != nil {
				t.Fatalf("fanout %d, n %d: %v", fanout, n, err)
			}
			if n <= fanout {
				if tree.Height() != 1 {
					t.Fatalf("fanout %d, n %d: height %d, want a root leaf", fanout, n, tree.Height())
				}
				continue
			}
			var walk func(nd *node)
			walk = func(nd *node) {
				if len(nd.entries) >= fanout {
					t.Fatalf("fanout %d, n %d: packed node at level %d is full (%d entries)", fanout, n, nd.level, len(nd.entries))
				}
				if cap(nd.entries) != fanout+1 {
					t.Fatalf("fanout %d, n %d: node capacity %d, want %d", fanout, n, cap(nd.entries), fanout+1)
				}
				if !nd.leaf() {
					for _, e := range nd.entries {
						walk(e.child)
					}
				}
			}
			for _, e := range tree.root.entries {
				walk(e.child)
			}
		}
	}
	// At the production fanout the fill target is what the name says.
	tree := BulkLoad(2, DefaultFanout, pool)
	for _, e := range tree.root.entries {
		if got := len(e.child.entries); got < 65 || got > 70 {
			t.Fatalf("leaf holds %d of %d entries, want ~%d%%", got, DefaultFanout, bulkFillPercent)
		}
	}
}

// TestBulkLoadEmpty: zero items give the same valid empty tree New does.
func TestBulkLoadEmpty(t *testing.T) {
	tree := BulkLoad(2, 8, nil)
	if err := tree.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	if tree.Len() != 0 || tree.Height() != 1 {
		t.Fatalf("Len %d, Height %d", tree.Len(), tree.Height())
	}
	q := geom.Point{1, 1}
	if _, _, ok := NewNNIter(tree, q, MinDistTo(q)).Next(); ok {
		t.Fatal("NNIter on empty tree returned an item")
	}
	if got, _ := tree.PossibleNN(q); got != nil {
		t.Fatalf("PossibleNN on empty tree = %v", got)
	}
	if got, _ := tree.Search(geom.UnitCube(2, 10), nil); len(got) != 0 {
		t.Fatalf("Search on empty tree = %v", got)
	}
	item := Item{Rect: geom.NewRect(geom.Point{1, 1}, geom.Point{2, 2}), ID: 9}
	if tree.Delete(item) {
		t.Fatal("Delete on empty tree reported success")
	}
	tree.Insert(item)
	if got, _ := tree.PossibleNN(q); !slices.Equal(got, []uint32{9}) {
		t.Fatalf("after one insert PossibleNN = %v", got)
	}
}

// TestBulkLoadDeterministic: the packing depends on the item set only, not
// on the order the items arrive in (ties are broken by ID).
func TestBulkLoadDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	items := bulkTestItems(rng, "degenerate", 2000, 3)
	shuffled := slices.Clone(items)
	want := structuralHash(BulkLoad(3, 16, items))
	if !slices.EqualFunc(items, shuffled, func(a, b Item) bool { return a.ID == b.ID }) {
		t.Fatal("BulkLoad reordered its input")
	}
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	if got := structuralHash(BulkLoad(3, 16, shuffled)); got != want {
		t.Fatalf("structural hash %#x after shuffling the input, want %#x", got, want)
	}
}

// TestBulkLoadWrongDimPanics: the dimension check and its message are
// Insert's.
func TestBulkLoadWrongDimPanics(t *testing.T) {
	bad := Item{Rect: geom.UnitCube(3, 1), ID: 1}
	message := func(f func()) (msg any) {
		defer func() { msg = recover() }()
		f()
		return nil
	}
	want := message(func() { New(2, 8).Insert(bad) })
	got := message(func() { BulkLoad(2, 8, []Item{{Rect: geom.UnitCube(2, 1)}, bad}) })
	if want == nil || got != want {
		t.Fatalf("BulkLoad panic %q, Insert panic %q", got, want)
	}
}

func BenchmarkBulkLoad(b *testing.B) {
	for _, c := range []struct{ n, d int }{{8000, 2}, {3000, 3}} {
		b.Run(fmt.Sprintf("n%d-d%d", c.n, c.d), func(b *testing.B) {
			items := benchItems(rand.New(rand.NewSource(1)), c.n, c.d)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchTree = BulkLoad(c.d, DefaultFanout, items)
			}
		})
	}
}

var benchTree *Tree
