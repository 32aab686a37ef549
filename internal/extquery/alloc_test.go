package extquery

import (
	"math/rand"
	"testing"

	"pvoronoi/internal/geom"
	"pvoronoi/internal/race"
)

// TestGraphExpansionAllocBudget pins the best-first expansion's allocation
// behavior after the scratch-pooling change: the frontier heap and visited
// set are pooled (mirroring queryScratch in pvindex), so a warm KNN graph
// query is left with only its small per-call result slices. The budget fails
// loudly if per-expansion scratch allocation creeps back in.
func TestGraphExpansionAllocBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	db := randomDB(rng, 200, 2, 800, 30, 0)
	g := buildAdjGraph(t, db)
	points := make([]geom.Point, 32)
	seeds := make([][]uint32, len(points))
	for i := range points {
		points[i] = geom.Point{rng.Float64() * 800, rng.Float64() * 800}
		seeds[i] = seedsAt(g, points[i])
	}
	// Warm the scratch pool.
	for i := range points {
		KNNCandidatesGraph(db, g, seeds[i], points[i], 8)
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		ids, cost := KNNCandidatesGraph(db, g, seeds[i%len(points)], points[i%len(points)], 8)
		if len(ids) == 0 || cost.Nodes == 0 {
			t.Fatal("expansion returned no candidates")
		}
		i++
	})
	// Race instrumentation inflates allocation counts, so the workload runs
	// under -race but the budgets are only asserted in uninstrumented builds
	// (same gating as TestSnapshotAllocBudget/TestPossibleNNAllocBudget).
	if race.Enabled {
		t.Logf("race detector enabled: skipping alloc budget assertion (measured %.1f)", allocs)
	} else if allocs > 12 {
		t.Fatalf("KNNCandidatesGraph allocates %.1f times per op, budget is 12", allocs)
	}

	// Group NN: the anchor is one allocation, the visited rows are pooled.
	groups := make([][]geom.Point, len(points))
	groupSeeds := make([][]uint32, len(points))
	for i := range points {
		groups[i] = []geom.Point{points[i], points[(i+1)%len(points)], points[(i+2)%len(points)]}
		anchor := GroupAnchor(groups[i], AggSum)
		groupSeeds[i] = seedsAt(g, anchor)
		GroupNNCandidatesGraph(db, g, groupSeeds[i], anchor, groups[i], AggSum)
	}
	i = 0
	allocs = testing.AllocsPerRun(200, func() {
		qs := groups[i%len(groups)]
		ids, cost := GroupNNCandidatesGraph(db, g, groupSeeds[i%len(groups)], GroupAnchor(qs, AggSum), qs, AggSum)
		if len(ids) == 0 || cost.Nodes == 0 {
			t.Fatal("expansion returned no candidates")
		}
		i++
	})
	if race.Enabled {
		t.Logf("race detector enabled: skipping alloc budget assertion (measured %.1f)", allocs)
	} else if allocs > 8 {
		t.Fatalf("GroupAnchor + GroupNNCandidatesGraph allocate %.1f times per op, budget is 8", allocs)
	}
}
