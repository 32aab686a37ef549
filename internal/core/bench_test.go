package core

import (
	"math/rand"
	"testing"

	"pvoronoi/internal/dataset"
	"pvoronoi/internal/race"
	"pvoronoi/internal/uncertain"
)

// TestComputeUBRAllocBudget: once the workspace pool is warm, one SE run
// allocates its two starting rectangles (l and h, whose coordinates it hands
// back) and the C-set browse's query point and distance closure — six
// allocations, whatever the number of shrink/expand steps (Δ = 1e-6 instead
// of 1 more than doubles them) and however deep the domination recursion
// goes. With a fresh tester, face memory and C-set per run it took 24.
func TestComputeUBRAllocBudget(t *testing.T) {
	const budget = 6
	rng := rand.New(rand.NewSource(1))
	db := randomDB(rng, 2000, 3, 10000, 60)
	tree := BuildRegionTree(db, 100)
	o := db.Objects()[7]
	measure := func(delta float64) (allocs float64, iterations int) {
		opts := DefaultOptions()
		opts.Delta = delta
		allocs = testing.AllocsPerRun(5, func() {
			_, st := ComputeUBR(db, tree, o, opts)
			iterations = st.Iterations
		})
		return allocs, iterations
	}
	coarse, few := measure(1)
	fine, many := measure(1e-6)
	if many < 2*few {
		t.Fatalf("Δ=1e-6 ran %d steps against %d at Δ=1: the test no longer varies the step count", many, few)
	}
	if race.Enabled {
		t.Skipf("allocs/object = %.0f and %.0f; budget not asserted under -race", coarse, fine)
	}
	if coarse != fine {
		t.Errorf("allocations grow with SE steps: %.0f for %d steps, %.0f for %d", coarse, few, fine, many)
	}
	if coarse > budget {
		t.Errorf("ComputeUBR allocates %.0f times per object, budget %d", coarse, budget)
	}
}

// BenchmarkComputeUBRIS runs SE on the package's random d = 3 data and on the
// benchmark harness's datasets (uni2, uni3: benchmark/spec.go) with their
// d = 5 sibling; tests/op is Stats.DominationTests per object, the count SE's
// cost follows, and ns/test the time per object (C-set browse included)
// divided by it.
func BenchmarkComputeUBRIS(b *testing.B) {
	synthetic := func(n, d int, side float64) func() *uncertain.DB {
		return func() *uncertain.DB {
			return dataset.Synthetic(dataset.SyntheticParams{N: n, Dim: d, MaxSide: side, Seed: 1})
		}
	}
	for _, c := range []struct {
		name string
		db   func() *uncertain.DB
	}{
		{"random3", func() *uncertain.DB { return randomDB(rand.New(rand.NewSource(1)), 2000, 3, 10000, 60) }},
		{"uni2", synthetic(8000, 2, 60)},
		{"uni3", synthetic(3000, 3, 400)},
		{"uni5", synthetic(3000, 5, 400)},
	} {
		b.Run(c.name, func(b *testing.B) {
			db := c.db()
			tree := BuildRegionTree(db, 100)
			opts := DefaultOptions()
			var tests int64
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				o := db.Objects()[i*37%db.Len()]
				_, st := ComputeUBR(db, tree, o, opts)
				tests += st.DominationTests
			}
			b.ReportMetric(float64(tests)/float64(b.N), "tests/op")
			if tests > 0 {
				b.ReportMetric(float64(b.Elapsed())/float64(tests), "ns/test")
			}
		})
	}
}

func BenchmarkComputeUBRFS(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	db := randomDB(rng, 2000, 3, 10000, 60)
	tree := BuildRegionTree(db, 100)
	opts := DefaultOptions()
	opts.Strategy = CSetFS
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o := db.Objects()[i%db.Len()]
		_, _ = ComputeUBR(db, tree, o, opts)
	}
}

func BenchmarkChooseCSetIS(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	db := randomDB(rng, 5000, 3, 10000, 60)
	tree := BuildRegionTree(db, 100)
	opts := DefaultOptions()
	ws := new(workspace)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o := db.Objects()[i%db.Len()]
		ws.items = ws.chooseCSet(ws.items[:0], db, tree, o, opts)
	}
}

// TestChooseCSetAllocBudget: an IS C-set selection on the uni2 shape costs
// two allocations once the iterator pool and the workspace are warm — the
// query point and the distance closure — however many leaves the browse
// opens. Before the workspace it also allocated the quadrant counters, a
// result slice and its growth steps: 12 allocations at KGlobal 200, 18 at
// 3200.
func TestChooseCSetAllocBudget(t *testing.T) {
	const budget = 2
	db := dataset.Synthetic(dataset.SyntheticParams{N: 8000, Dim: 2, MaxSide: 60, Seed: 1})
	tree := BuildRegionTree(db, 100)
	o := db.Objects()[7]
	measure := func(kGlobal int) (allocs float64, leaves int) {
		opts := DefaultOptions()
		opts.KGlobal, opts.KPartition = kGlobal, kGlobal
		ws := new(workspace)
		browse := func() { ws.items = ws.chooseCSet(ws.items[:0], db, tree, o, opts) }
		browse() // warm the iterator and the workspace to this browse's size
		allocs = testing.AllocsPerRun(20, browse)
		return allocs, ws.leaves
	}
	short, fewLeaves := measure(200)
	long, manyLeaves := measure(3200)
	t.Logf("KGlobal 200: %.0f allocs, %d leaves; KGlobal 3200: %.0f allocs, %d leaves", short, fewLeaves, long, manyLeaves)
	if manyLeaves < 4*fewLeaves {
		t.Fatalf("the long browse opened %d leaves against %d: the test no longer varies the browse", manyLeaves, fewLeaves)
	}
	if race.Enabled {
		t.Skip("budget not asserted under -race")
	}
	for _, c := range []struct {
		allocs float64
		leaves int
	}{{short, fewLeaves}, {long, manyLeaves}} {
		if c.allocs > budget {
			t.Errorf("chooseCSet allocates %.0f times over %d leaves, budget %d", c.allocs, c.leaves, budget)
		}
	}
}
