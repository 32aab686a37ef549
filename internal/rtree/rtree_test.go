package rtree

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"pvoronoi/internal/geom"
)

func randRect(rng *rand.Rand, d int, span, maxSide float64) geom.Rect {
	lo := make(geom.Point, d)
	hi := make(geom.Point, d)
	for i := 0; i < d; i++ {
		lo[i] = rng.Float64() * span
		hi[i] = lo[i] + rng.Float64()*maxSide
	}
	return geom.Rect{Lo: lo, Hi: hi}
}

func buildRandomTree(t *testing.T, rng *rand.Rand, n, d, fanout int) (*Tree, []Item) {
	t.Helper()
	tree := New(d, fanout)
	items := make([]Item, n)
	for i := 0; i < n; i++ {
		items[i] = Item{Rect: randRect(rng, d, 1000, 20), ID: uint32(i)}
		tree.Insert(items[i])
	}
	if err := tree.checkInvariants(); err != nil {
		t.Fatalf("invariants after build: %v", err)
	}
	return tree, items
}

func TestInsertAndSearchSmall(t *testing.T) {
	tree := New(2, 4)
	items := []Item{
		{Rect: geom.NewRect(geom.Point{0, 0}, geom.Point{1, 1}), ID: 1},
		{Rect: geom.NewRect(geom.Point{5, 5}, geom.Point{6, 6}), ID: 2},
		{Rect: geom.NewRect(geom.Point{0.5, 0.5}, geom.Point{2, 2}), ID: 3},
	}
	for _, it := range items {
		tree.Insert(it)
	}
	got, _ := tree.Search(geom.NewRect(geom.Point{0, 0}, geom.Point{2, 2}), nil)
	ids := idsOf(got)
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 3 {
		t.Fatalf("Search = %v", ids)
	}
	if tree.Len() != 3 {
		t.Fatalf("Len = %d", tree.Len())
	}
}

func idsOf(items []Item) []uint32 {
	ids := make([]uint32, len(items))
	for i, it := range items {
		ids[i] = it.ID
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func TestSearchMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, d := range []int{2, 3, 4} {
		tree, items := buildRandomTree(t, rng, 3000, d, 16)
		for iter := 0; iter < 50; iter++ {
			q := randRect(rng, d, 1000, 100)
			want := map[uint32]bool{}
			for _, it := range items {
				if it.Rect.Intersects(q) {
					want[it.ID] = true
				}
			}
			got, _ := tree.Search(q, nil)
			if len(got) != len(want) {
				t.Fatalf("d=%d: Search returned %d items, want %d", d, len(got), len(want))
			}
			for _, it := range got {
				if !want[it.ID] {
					t.Fatalf("d=%d: unexpected item %d", d, it.ID)
				}
			}
		}
	}
}

func TestAllReturnsEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tree, items := buildRandomTree(t, rng, 500, 2, 8)
	got := tree.All(nil)
	if len(got) != len(items) {
		t.Fatalf("All returned %d, want %d", len(got), len(items))
	}
	seen := map[uint32]bool{}
	for _, it := range got {
		if seen[it.ID] {
			t.Fatalf("duplicate ID %d", it.ID)
		}
		seen[it.ID] = true
	}
}

func TestDelete(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tree, items := buildRandomTree(t, rng, 2000, 3, 10)
	// Delete half the items in random order.
	perm := rng.Perm(len(items))
	for _, idx := range perm[:1000] {
		if !tree.Delete(items[idx]) {
			t.Fatalf("Delete(%d) failed", items[idx].ID)
		}
	}
	if tree.Len() != 1000 {
		t.Fatalf("Len = %d", tree.Len())
	}
	if err := tree.checkInvariants(); err != nil {
		t.Fatalf("invariants after deletes: %v", err)
	}
	// Deleted items must be gone; survivors must be findable.
	deleted := map[uint32]bool{}
	for _, idx := range perm[:1000] {
		deleted[items[idx].ID] = true
	}
	all := tree.All(nil)
	for _, it := range all {
		if deleted[it.ID] {
			t.Fatalf("deleted item %d still present", it.ID)
		}
	}
	if tree.Delete(items[perm[0]]) {
		t.Fatal("double delete succeeded")
	}
	// Delete the rest down to empty.
	for _, idx := range perm[1000:] {
		if !tree.Delete(items[idx]) {
			t.Fatalf("Delete(%d) failed", items[idx].ID)
		}
	}
	if tree.Len() != 0 {
		t.Fatalf("Len after full delete = %d", tree.Len())
	}
	if got, _ := tree.Search(geom.UnitCube(3, 1000), nil); len(got) != 0 {
		t.Fatalf("empty tree search returned %v", got)
	}
}

func TestDeleteReinsertCycle(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tree, items := buildRandomTree(t, rng, 800, 2, 8)
	for cycle := 0; cycle < 3; cycle++ {
		for i := 0; i < 200; i++ {
			idx := rng.Intn(len(items))
			tree.Delete(items[idx])
			tree.Insert(items[idx])
		}
		if err := tree.checkInvariants(); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
	}
	if tree.Len() != 800 {
		t.Fatalf("Len = %d", tree.Len())
	}
}

func TestNNIterOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, d := range []int{2, 3} {
		tree, items := buildRandomTree(t, rng, 1500, d, 12)
		for iter := 0; iter < 20; iter++ {
			q := make(geom.Point, d)
			for i := range q {
				q[i] = rng.Float64() * 1000
			}
			it := NewNNIter(tree, q, MinDistTo(q))
			var prev float64 = -1
			count := 0
			for {
				item, dist, ok := it.Next()
				if !ok {
					break
				}
				if dist < prev-1e-12 {
					t.Fatalf("NN order violated: %g after %g", dist, prev)
				}
				if math.Abs(item.Rect.MinDist(q)-dist) > 1e-12 {
					t.Fatalf("reported dist %g != MinDist %g", dist, item.Rect.MinDist(q))
				}
				prev = dist
				count++
			}
			if count != len(items) {
				t.Fatalf("iterator returned %d of %d items", count, len(items))
			}
		}
	}
}

func TestNNIterFirstMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	tree, items := buildRandomTree(t, rng, 2000, 3, 16)
	for iter := 0; iter < 50; iter++ {
		q := geom.Point{rng.Float64() * 1000, rng.Float64() * 1000, rng.Float64() * 1000}
		it := NewNNIter(tree, q, MinDistTo(q))
		_, gotDist, ok := it.Next()
		if !ok {
			t.Fatal("no NN returned")
		}
		best := math.Inf(1)
		for _, item := range items {
			if d := item.Rect.MinDist(q); d < best {
				best = d
			}
		}
		if math.Abs(gotDist-best) > 1e-12 {
			t.Fatalf("NN dist = %g, brute force %g", gotDist, best)
		}
	}
}

func TestNNIterCenterDist(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tree, items := buildRandomTree(t, rng, 1000, 2, 10)
	q := geom.Point{500, 500}
	it := NewNNIter(tree, q, CenterDistTo(q))
	var prev float64 = -1
	var count int
	for {
		item, dist, ok := it.Next()
		if !ok {
			break
		}
		if dist < prev-1e-12 {
			t.Fatalf("center-dist order violated")
		}
		if math.Abs(geom.Dist(item.Rect.Center(), q)-dist) > 1e-12 {
			t.Fatal("center distance mismatch")
		}
		prev = dist
		count++
	}
	if count != len(items) {
		t.Fatalf("returned %d of %d", count, len(items))
	}
}

func TestPossibleNNMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, d := range []int{2, 3, 4} {
		tree, items := buildRandomTree(t, rng, 2000, d, 16)
		for iter := 0; iter < 50; iter++ {
			q := make(geom.Point, d)
			for i := range q {
				q[i] = rng.Float64() * 1000
			}
			// Brute force possible-NN set.
			best := math.Inf(1)
			for _, it := range items {
				if m := it.Rect.MaxDist(q); m < best {
					best = m
				}
			}
			want := map[uint32]bool{}
			for _, it := range items {
				if it.Rect.MinDist(q) <= best {
					want[it.ID] = true
				}
			}
			got, _ := tree.PossibleNN(q)
			if len(got) != len(want) {
				t.Fatalf("d=%d: PossibleNN returned %d, want %d", d, len(got), len(want))
			}
			for _, id := range got {
				if !want[id] {
					t.Fatalf("d=%d: unexpected candidate %d", d, id)
				}
			}
		}
	}
}

func TestPossibleNNEmptyTree(t *testing.T) {
	tree := New(2, 8)
	if got, cost := tree.PossibleNN(geom.Point{1, 2}); got != nil || cost != (Cost{}) {
		t.Fatalf("empty tree PossibleNN = %v, cost %+v", got, cost)
	}
}

func TestLeafIOCounting(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tree, _ := buildRandomTree(t, rng, 3000, 2, 10)
	_, cost := tree.PossibleNN(geom.Point{500, 500})
	ioQuery := cost.Leaves
	if ioQuery == 0 {
		t.Fatal("no leaf I/O recorded")
	}
	// Pruned search must touch far fewer leaves than a full scan.
	_, cost = tree.Search(geom.UnitCube(2, 1000), nil)
	ioFull := cost.Leaves
	if ioQuery*3 > ioFull {
		t.Fatalf("PossibleNN touched %d of %d leaves; pruning ineffective", ioQuery, ioFull)
	}
}

func TestDuplicateRects(t *testing.T) {
	tree := New(2, 4)
	r := geom.NewRect(geom.Point{1, 1}, geom.Point{2, 2})
	for i := 0; i < 20; i++ {
		tree.Insert(Item{Rect: r, ID: uint32(i)})
	}
	if err := tree.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	got, _ := tree.Search(r, nil)
	if len(got) != 20 {
		t.Fatalf("Search = %d items", len(got))
	}
	// Delete specific IDs among duplicates.
	if !tree.Delete(Item{Rect: r, ID: 7}) {
		t.Fatal("delete of duplicate-rect item failed")
	}
	got, _ = tree.Search(r, nil)
	if len(got) != 19 {
		t.Fatalf("after delete: %d items", len(got))
	}
	for _, it := range got {
		if it.ID == 7 {
			t.Fatal("deleted ID still present")
		}
	}
}

func TestHeightGrowth(t *testing.T) {
	tree := New(2, 4)
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 100; i++ {
		tree.Insert(Item{Rect: randRect(rng, 2, 100, 5), ID: uint32(i)})
	}
	if tree.Height() < 3 {
		t.Fatalf("height = %d for 100 items at fanout 4", tree.Height())
	}
	if err := tree.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func benchmarkInsert(b *testing.B, d int) {
	rng := rand.New(rand.NewSource(1))
	tree := New(d, DefaultFanout)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tree.Insert(Item{Rect: randRect(rng, d, 10000, 60), ID: uint32(i)})
	}
}

func BenchmarkInsert2D(b *testing.B) { benchmarkInsert(b, 2) }
func BenchmarkInsert3D(b *testing.B) { benchmarkInsert(b, 3) }

func benchItems(rng *rand.Rand, n, d int) []Item {
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{Rect: randRect(rng, d, 10000, 60), ID: uint32(i)}
	}
	return items
}

// benchQueryTree is the tree the read benchmarks browse: bulk-loaded, as
// the region tree of a built or loaded index is.
func benchQueryTree(rng *rand.Rand, n, d int) *Tree {
	return BulkLoad(d, DefaultFanout, benchItems(rng, n, d))
}

func BenchmarkPossibleNN3D(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tree := benchQueryTree(rng, 20000, 3)
	b.ResetTimer()
	b.ReportAllocs()
	leaves := 0
	for i := 0; i < b.N; i++ {
		q := geom.Point{rng.Float64() * 10000, rng.Float64() * 10000, rng.Float64() * 10000}
		_, cost := tree.PossibleNN(q)
		leaves += cost.Leaves
	}
	b.ReportMetric(float64(leaves)/float64(b.N), "leafIO/op")
}

// BenchmarkNNIter browses the 200 nearest regions of a point — the shape of
// one IS C-set selection (KGlobal = 200) during index construction.
func BenchmarkNNIter(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tree := benchQueryTree(rng, 8000, 2)
	b.ResetTimer()
	b.ReportAllocs()
	leaves := 0
	for i := 0; i < b.N; i++ {
		q := geom.Point{rng.Float64() * 10000, rng.Float64() * 10000}
		it := NewNNIter(tree, q, MinDistTo(q))
		for k := 0; k < 200; k++ {
			if _, _, ok := it.Next(); !ok {
				b.Fatal("browse ended early")
			}
		}
		leaves += it.Leaves()
		it.Release()
	}
	b.ReportMetric(float64(leaves)/float64(b.N), "leafIO/op")
}
