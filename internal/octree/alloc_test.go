package octree

import (
	"math/rand"
	"runtime"
	"testing"

	"pvoronoi/internal/geom"
	"pvoronoi/internal/pagestore"
	"pvoronoi/internal/race"
)

// TestRemoveAllocBudget: removing a row from many leaves copies each leaf's
// kept entry records into the mutating handle's scratch and descends on a
// stack buffer of cells, so once a first removal has grown the scratch, a
// second costs a constant number of allocations however many leaves it
// touches. Decoding every entry into fresh slices cost two per entry.
func TestRemoveAllocBudget(t *testing.T) {
	ti := newTestIndex(t, 2, 1000, 512, 1<<20)
	rng := rand.New(rand.NewSource(9))
	for i := uint32(0); i < 2000; i++ {
		u := randSubRect(rng, 1000, 10, 2)
		ti.insert(t, i, u, u.Expand(5))
	}
	hub := geom.NewRect(geom.Point{100, 100}, geom.Point{900, 900})
	for _, id := range []uint32{5000, 5001} {
		ti.insert(t, id, geom.NewRect(geom.Point{495, 495}, geom.Point{505, 505}), hub)
	}
	var freed []pagestore.PageID
	clone := ti.tree.CloneCOW(nil, &freed)
	if _, err := clone.Remove(5000, hub); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	leaves, err := clone.Remove(5001, hub)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if leaves < 64 {
		t.Fatalf("the row was in %d leaves, want ≥ 64", leaves)
	}
	allocs := after.Mallocs - before.Mallocs
	t.Logf("removing a row from %d leaves: %d allocations", leaves, allocs)
	// Race instrumentation inflates allocation counts: the removal runs under
	// -race, the budget is asserted in uninstrumented builds.
	if !race.Enabled && allocs > 8 {
		t.Fatalf("removing a row from %d leaves allocated %d times, want ≤ 8", leaves, allocs)
	}
	if err := clone.Validate(); err != nil {
		t.Fatal(err)
	}
}
