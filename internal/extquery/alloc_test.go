package extquery

import (
	"math/rand"
	"testing"

	"pvoronoi/internal/geom"
	"pvoronoi/internal/race"
)

// TestTreeRetrievalAllocBudget pins the tree retrievals' allocation behavior:
// the browse queue and the k-th heap are pooled in rtree, the kept items and
// kNN's sorted upper bounds in treeScratch, so a warm call is left with its
// result slice and little else. The budget fails loudly if per-call scratch
// allocation creeps back in.
func TestTreeRetrievalAllocBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	db := randomDB(rng, 2000, 2, 10000, 60, 0)
	tree := regionTreeOf(db)
	points := make([]geom.Point, 32)
	groups := make([][]geom.Point, len(points))
	for i := range points {
		points[i] = geom.Point{rng.Float64() * 10000, rng.Float64() * 10000}
	}
	for i := range points {
		groups[i] = []geom.Point{points[i], points[(i+1)%len(points)], points[(i+2)%len(points)]}
	}
	// Warm the scratch pools.
	for i := range points {
		KNNCandidatesTree(tree, points[i], 8)
		GroupNNCandidatesTree(tree, groups[i], AggSum)
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		ids, cost := KNNCandidatesTree(tree, points[i%len(points)], 8)
		if len(ids) == 0 || cost.Leaves == 0 {
			t.Fatal("retrieval returned no candidates")
		}
		i++
	})
	t.Logf("warm kNN call: %.1f allocations", allocs)
	// Race instrumentation inflates allocation counts, so the workload runs
	// under -race but the budgets are only asserted in uninstrumented builds
	// (same gating as TestSnapshotAllocBudget/TestPossibleNNAllocBudget).
	if race.Enabled {
		t.Logf("race detector enabled: skipping alloc budget assertion (measured %.1f)", allocs)
	} else if allocs > 5 {
		t.Fatalf("KNNCandidatesTree allocates %.1f times per op, budget is 5", allocs)
	}

	i = 0
	allocs = testing.AllocsPerRun(200, func() {
		ids, cost := GroupNNCandidatesTree(tree, groups[i%len(groups)], AggSum)
		if len(ids) == 0 || cost.Leaves == 0 {
			t.Fatal("retrieval returned no candidates")
		}
		i++
	})
	t.Logf("warm group-NN call: %.1f allocations", allocs)
	if race.Enabled {
		t.Logf("race detector enabled: skipping alloc budget assertion (measured %.1f)", allocs)
	} else if allocs > 4 {
		t.Fatalf("GroupNNCandidatesTree allocates %.1f times per op, budget is 4", allocs)
	}
}
