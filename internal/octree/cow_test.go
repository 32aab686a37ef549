package octree

import (
	"math/rand"
	"sort"
	"testing"

	"pvoronoi/internal/pagestore"
)

func queryIDs(t *testing.T, tree *Tree, q []float64) []uint32 {
	t.Helper()
	entries, _, err := tree.PointQueryInto(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]uint32, len(entries))
	for i, e := range entries {
		ids[i] = e.ID
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// TestCloneCOWIsolation churns a COW clone (inserts, removals, splits,
// chain rewrites) and checks the sealed original answers every point query
// exactly as before: shadow paging must never rewrite a page the original
// references, and deferred frees must keep those pages alive.
func TestCloneCOWIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	ti := newTestIndex(t, 2, 1000, 256, 1<<20)
	for i := 0; i < 120; i++ {
		r := randSubRect(rng, 1000, 40, 2)
		ti.insert(t, uint32(i), r, r)
	}

	// Record the original's answers at probe points.
	probes := make([][]float64, 60)
	want := make([][]uint32, len(probes))
	for i := range probes {
		probes[i] = []float64{rng.Float64() * 1000, rng.Float64() * 1000}
		want[i] = queryIDs(t, ti.tree, probes[i])
	}
	liveBefore := ti.tree.store.Live()

	var freed []pagestore.PageID
	clone := ti.tree.CloneCOW(nil, &freed)
	for i := 0; i < 80; i++ {
		r := randSubRect(rng, 1000, 40, 2)
		ti.ubrs[uint32(5000+i)] = r
		if err := clone.Insert(uint32(5000+i), r, r); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 60; i++ {
		if _, err := clone.Remove(uint32(i), ti.ubrs[uint32(i)]); err != nil {
			t.Fatal(err)
		}
	}
	if err := clone.Validate(); err != nil {
		t.Fatalf("clone validate: %v", err)
	}

	// The sealed original still answers identically — no page it references
	// was touched or freed.
	for i, q := range probes {
		got := queryIDs(t, ti.tree, q)
		if len(got) != len(want[i]) {
			t.Fatalf("probe %d: original changed: %v -> %v", i, want[i], got)
		}
		for j := range got {
			if got[j] != want[i][j] {
				t.Fatalf("probe %d: original changed: %v -> %v", i, want[i], got)
			}
		}
	}
	if err := ti.tree.Validate(); err != nil {
		t.Fatalf("original validate after clone churn: %v", err)
	}

	// Reclaim: freeing the deferred pages keeps the clone intact (they are
	// exclusively the original's) and returns the store near its pre-churn
	// footprint once the original's share is dropped.
	if len(freed) == 0 {
		t.Fatal("clone churn deferred no frees — COW shadowing did not engage")
	}
	for _, p := range freed {
		if err := ti.tree.store.Free(p); err != nil {
			t.Fatalf("freeing deferred page %d: %v", p, err)
		}
	}
	if err := clone.Validate(); err != nil {
		t.Fatalf("clone validate after reclaim: %v", err)
	}
	if live := ti.tree.store.Live(); live > liveBefore+3*len(freed) {
		t.Fatalf("store grew unexpectedly: %d -> %d live pages", liveBefore, live)
	}
}

// TestCloneCOWAbort verifies AbortCOW returns every session page to the
// store: after an aborted clone the live-page count is back to the
// original's footprint.
func TestCloneCOWAbort(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	ti := newTestIndex(t, 2, 1000, 256, 1<<20)
	for i := 0; i < 80; i++ {
		r := randSubRect(rng, 1000, 40, 2)
		ti.insert(t, uint32(i), r, r)
	}
	liveBefore := ti.tree.store.Live()

	var freed []pagestore.PageID
	clone := ti.tree.CloneCOW(nil, &freed)
	for i := 0; i < 50; i++ {
		r := randSubRect(rng, 1000, 40, 2)
		ti.ubrs[uint32(7000+i)] = r
		if err := clone.Insert(uint32(7000+i), r, r); err != nil {
			t.Fatal(err)
		}
	}
	clone.AbortCOW()
	if live := ti.tree.store.Live(); live != liveBefore {
		t.Fatalf("abort leaked pages: %d live, want %d", live, liveBefore)
	}
	if err := ti.tree.Validate(); err != nil {
		t.Fatalf("original validate after abort: %v", err)
	}
}
