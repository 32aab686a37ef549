package rtree

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"pvoronoi/internal/geom"
)

func randTree(rng *rand.Rand, n int) (*Tree, []Item) {
	t := New(2, 8)
	items := make([]Item, n)
	for i := 0; i < n; i++ {
		lo := geom.Point{rng.Float64() * 900, rng.Float64() * 900}
		hi := geom.Point{lo[0] + 1 + rng.Float64()*40, lo[1] + 1 + rng.Float64()*40}
		items[i] = Item{Rect: geom.Rect{Lo: lo, Hi: hi}, ID: uint32(i)}
		t.Insert(items[i])
	}
	return t, items
}

// KthBound's contract: bound is the exact k-th smallest upper over the whole
// tree, every item at or below the bound (by lower) is visited, and no
// mass below the bound hides in unvisited subtrees. Each kept item carries
// its own bounds, evaluated once: upper runs exactly once per kept item, and
// the items are appended after whatever dst already held.
func TestKthBoundContract(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tree, items := randTree(rng, 300)
	sentinel := Bounded{Item: Item{ID: 1 << 30}, Lower: -1, Upper: -1}
	var dst []Bounded
	for iter := 0; iter < 25; iter++ {
		q := geom.Point{rng.Float64() * 900, rng.Float64() * 900}
		lower := func(r geom.Rect) float64 { return r.MinDist(q) }
		uppers := 0
		upper := func(r geom.Rect) float64 { uppers++; return r.MaxDist(q) }
		for _, k := range []int{1, 3, 17, 299, 300, 1000} {
			uppers = 0
			got, bound, cost := tree.KthBound(lower, upper, k, append(dst[:0], sentinel))
			dst = got
			if got[0].ID != sentinel.ID || got[0].Lower != -1 {
				t.Fatalf("k=%d: dst's own entry overwritten: %+v", k, got[0])
			}
			visited := got[1:]
			if uppers != len(visited) {
				t.Fatalf("k=%d: upper evaluated %d times for %d kept items", k, uppers, len(visited))
			}
			for _, b := range visited {
				if b.Lower != lower(b.Rect) || b.Upper != b.Rect.MaxDist(q) {
					t.Fatalf("k=%d: item %d stored bounds %g/%g, want %g/%g", k, b.ID, b.Lower, b.Upper, lower(b.Rect), b.Rect.MaxDist(q))
				}
			}
			// Exact k-th smallest upper by brute force.
			all := make([]float64, len(items))
			for i, it := range items {
				all[i] = it.Rect.MaxDist(q)
			}
			sort.Float64s(all)
			want := math.Inf(1)
			if k <= len(all) {
				want = all[k-1]
			}
			if bound != want {
				t.Fatalf("k=%d: bound %g, want %g", k, bound, want)
			}
			seen := map[uint32]bool{}
			for _, it := range visited {
				seen[it.ID] = true
			}
			for _, it := range items {
				if lower(it.Rect) <= bound && !seen[it.ID] {
					t.Fatalf("k=%d: item %d with lower %g <= bound %g not visited",
						k, it.ID, lower(it.Rect), bound)
				}
			}
			if cost.Leaves == 0 {
				t.Fatalf("k=%d: no leaf accesses recorded", k)
			}
		}
	}
}

func TestKthBoundEmptyTree(t *testing.T) {
	tree := New(2, 8)
	items, bound, cost := tree.KthBound(
		func(geom.Rect) float64 { return 0 },
		func(geom.Rect) float64 { return 0 }, 3, nil)
	if items != nil || !math.IsInf(bound, 1) || cost.Leaves != 0 {
		t.Fatalf("empty tree: items=%v bound=%g cost=%+v", items, bound, cost)
	}
}

// Walk with a nil prune visits everything; a pruning walk must never visit an
// item inside a pruned subtree and must skip those pages entirely.
func TestWalkPruning(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tree, items := randTree(rng, 200)
	var all []uint32
	full := tree.Walk(nil, func(it Item) { all = append(all, it.ID) })
	if len(all) != len(items) {
		t.Fatalf("full walk saw %d of %d items", len(all), len(items))
	}
	// Prune the left half of the domain.
	cut := geom.NewRect(geom.Point{0, 0}, geom.Point{450, 941})
	var kept []uint32
	cost := tree.Walk(
		func(m geom.Rect) bool { return cut.ContainsRect(m) },
		func(it Item) { kept = append(kept, it.ID) })
	if cost.Leaves > full.Leaves {
		t.Fatalf("pruned walk read %d leaves, full walk %d", cost.Leaves, full.Leaves)
	}
	seen := map[uint32]bool{}
	for _, id := range kept {
		seen[id] = true
	}
	for _, it := range items {
		if !cut.ContainsRect(it.Rect) && !seen[it.ID] {
			t.Fatalf("item %d outside the pruned region was skipped", it.ID)
		}
	}
}

// TestSearchCountsLeaves holds Search to a linear scan and its Cost to a
// non-empty, bounded leaf count.
func TestSearchCountsLeaves(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tree, items := randTree(rng, 150)
	_, all := tree.Search(geom.UnitCube(2, 1000), nil)
	for iter := 0; iter < 20; iter++ {
		lo := geom.Point{rng.Float64() * 800, rng.Float64() * 800}
		r := geom.NewRect(lo, geom.Point{lo[0] + 100, lo[1] + 100})
		want := 0
		for _, it := range items {
			if it.Rect.Intersects(r) {
				want++
			}
		}
		got, cost := tree.Search(r, nil)
		if len(got) != want {
			t.Fatalf("Search found %d, linear scan %d", len(got), want)
		}
		if cost.Leaves <= 0 || cost.Leaves > all.Leaves {
			t.Fatalf("window read %d leaves, the whole tree %d", cost.Leaves, all.Leaves)
		}
	}
}

// callCosts is what one query point costs on each query of the tree.
type callCosts struct {
	search, kth, walk, pnn Cost
	browse                 int
}

func costsAt(tree *Tree, q geom.Point) callCosts {
	var c callCosts
	window := geom.PointRect(q).Expand(60)
	_, c.search = tree.Search(window, nil)
	lower := func(r geom.Rect) float64 { return r.MinDist(q) }
	upper := func(r geom.Rect) float64 { return r.MaxDist(q) }
	_, _, c.kth = tree.KthBound(lower, upper, 8, nil)
	c.walk = tree.Walk(func(r geom.Rect) bool { return !r.Intersects(window) }, func(Item) {})
	_, c.pnn = tree.PossibleNN(q)
	it := NewNNIter(tree, q, MinDistTo(q))
	for i := 0; i < 50; i++ {
		it.Next()
	}
	c.browse = it.Leaves()
	it.Release()
	return c
}

// TestConcurrentCallCost has goroutines run every query of one sealed tree
// at once: each call's Cost (and a browse's Leaves) must equal that of the
// same call run alone, since queries count into nothing they share. Run
// under -race.
func TestConcurrentCallCost(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	tree := BulkLoad(2, 8, bulkTestItems(rng, "uniform", 2000, 2))
	queries := make([]geom.Point, 12)
	alone := make([]callCosts, len(queries))
	for i := range queries {
		queries[i] = randQuery(rng, 2)
		alone[i] = costsAt(tree, queries[i])
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				qi := (g + round) % len(queries)
				if got := costsAt(tree, queries[qi]); got != alone[qi] {
					t.Errorf("goroutine %d query %d: costs %+v, alone %+v", g, qi, got, alone[qi])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
