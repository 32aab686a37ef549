package octree

import (
	"math/rand"
	"slices"
	"testing"

	"pvoronoi/internal/geom"
	"pvoronoi/internal/pagestore"
)

// testIndex couples the tree with an in-memory UBR map, standing in for the
// secondary index.
type testIndex struct {
	tree *Tree
	ubrs map[uint32]geom.Rect
}

func newTestIndex(t *testing.T, d int, span float64, pageSize, memBudget int) *testIndex {
	t.Helper()
	ti := &testIndex{ubrs: map[uint32]geom.Rect{}}
	tree, err := New(Config{
		Domain:    geom.UnitCube(d, span),
		Store:     pagestore.New(pageSize),
		Lookup:    func(id uint32) (geom.Rect, bool) { r, ok := ti.ubrs[id]; return r, ok },
		MemBudget: memBudget,
		MaxDepth:  12,
	})
	if err != nil {
		t.Fatal(err)
	}
	ti.tree = tree
	return ti
}

func (ti *testIndex) insert(t *testing.T, id uint32, u, ubr geom.Rect) {
	t.Helper()
	ti.ubrs[id] = ubr
	if err := ti.tree.Insert(id, u, ubr); err != nil {
		t.Fatal(err)
	}
}

func randSubRect(rng *rand.Rand, span, maxSide float64, d int) geom.Rect {
	lo := make(geom.Point, d)
	hi := make(geom.Point, d)
	for j := 0; j < d; j++ {
		lo[j] = rng.Float64() * (span - maxSide)
		hi[j] = lo[j] + rng.Float64()*maxSide
	}
	return geom.Rect{Lo: lo, Hi: hi}
}

func TestPointQueryFindsOverlappingUBRs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, d := range []int{2, 3} {
		ti := newTestIndex(t, d, 1000, 512, 1<<20)
		type obj struct {
			u, ubr geom.Rect
		}
		objs := map[uint32]obj{}
		for i := uint32(0); i < 300; i++ {
			u := randSubRect(rng, 1000, 20, d)
			ubr := u.Expand(rng.Float64() * 80) // UBR always contains u
			objs[i] = obj{u, ubr}
			ti.insert(t, i, u, ubr)
		}
		for iter := 0; iter < 100; iter++ {
			q := make(geom.Point, d)
			for j := range q {
				q[j] = rng.Float64() * 1000
			}
			got, io, err := ti.tree.PointQueryInto(q, nil)
			if err != nil {
				t.Fatal(err)
			}
			// The ID-only query takes the same descent and chain.
			ids, idIO, err := ti.tree.PointQueryIDsInto(q, nil)
			if err != nil || idIO != io || len(ids) != len(got) {
				t.Fatalf("PointQueryIDsInto: %d IDs, %d pages, err %v; PointQueryInto: %d entries, %d pages", len(ids), idIO, err, len(got), io)
			}
			found := map[uint32]bool{}
			for i, e := range got {
				if ids[i] != e.ID {
					t.Fatalf("PointQueryIDsInto entry %d is %d, PointQueryInto's %d", i, ids[i], e.ID)
				}
				found[e.ID] = true
				if !e.Region.Equal(objs[e.ID].u) {
					t.Fatalf("entry region corrupted for %d", e.ID)
				}
			}
			// Completeness: every object whose UBR contains q must appear.
			for id, o := range objs {
				if o.ubr.Contains(q) && !found[id] {
					t.Fatalf("d=%d: object %d (UBR contains q=%v) missing from leaf", d, id, q)
				}
			}
		}
	}
}

func TestPointQueryOutsideDomain(t *testing.T) {
	ti := newTestIndex(t, 2, 100, 512, 1<<20)
	if _, _, err := ti.tree.PointQueryInto(geom.Point{500, 500}, nil); err == nil {
		t.Fatal("out-of-domain query accepted")
	}
}

// TestDimensionBound: New refuses a domain outside [1, geom.MaxDim] — a
// point descent keeps its cells in a MaxDim-sized array — and a page size
// outside [header + one entry, maxPageSize]: a writeChain over pages that
// hold no entry would never end, and an index image's page size is trusted
// no further than maxPageSize.
func TestDimensionBound(t *testing.T) {
	for _, d := range []int{0, 1, geom.MaxDim, geom.MaxDim + 1} {
		ok := d >= 1 && d <= geom.MaxDim
		dom := geom.UnitCube(d, 1)
		if _, err := New(Config{Domain: dom, Store: pagestore.New(512)}); (err == nil) != ok {
			t.Errorf("New at d=%d: %v", d, err)
		}
	}
	for _, c := range []struct{ d, pageSize int }{{2, 43}, {2, 44}, {3, 59}, {3, 60}, {2, maxPageSize}, {2, maxPageSize + 1}} {
		ok := c.pageSize >= 8+4+16*c.d && c.pageSize <= maxPageSize
		if _, err := New(Config{Domain: geom.UnitCube(c.d, 1), Store: pagestore.New(c.pageSize)}); (err == nil) != ok {
			t.Errorf("New at d=%d, page size %d: %v", c.d, c.pageSize, err)
		}
	}
}

func TestSplitHappensUnderMemory(t *testing.T) {
	ti := newTestIndex(t, 2, 1000, 256, 1<<20) // small pages force splits
	rng := rand.New(rand.NewSource(2))
	for i := uint32(0); i < 500; i++ {
		u := randSubRect(rng, 1000, 10, 2)
		ti.insert(t, i, u, u.Expand(5))
	}
	st := ti.tree.TreeStats()
	if st.Internal == 0 || st.SplitOps == 0 {
		t.Fatalf("no splits: %+v", st)
	}
	if st.MemUsed == 0 || st.MemUsed > 1<<20 {
		t.Fatalf("memory accounting wrong: %d", st.MemUsed)
	}
}

func TestChainsWhenMemoryExhausted(t *testing.T) {
	// Budget for zero splits: every leaf overflow must chain pages.
	ti := newTestIndex(t, 2, 1000, 256, 1)
	rng := rand.New(rand.NewSource(3))
	for i := uint32(0); i < 300; i++ {
		u := randSubRect(rng, 1000, 10, 2)
		ti.insert(t, i, u, u.Expand(5))
	}
	st := ti.tree.TreeStats()
	if st.Internal != 0 {
		t.Fatalf("splits happened with zero budget: %+v", st)
	}
	if st.Pages < 2 {
		t.Fatalf("expected chained pages, got %d", st.Pages)
	}
	// Queries must still be complete.
	q := geom.Point{500, 500}
	got, _, err := ti.tree.PointQueryInto(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	for id, ubr := range ti.ubrs {
		if ubr.Contains(q) {
			found := false
			for _, e := range got {
				if e.ID == id {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("chained leaf lost object %d", id)
			}
		}
	}
}

func TestRemove(t *testing.T) {
	ti := newTestIndex(t, 2, 1000, 256, 1<<20)
	rng := rand.New(rand.NewSource(4))
	ubrs := map[uint32]geom.Rect{}
	for i := uint32(0); i < 200; i++ {
		u := randSubRect(rng, 1000, 15, 2)
		ubr := u.Expand(30)
		ubrs[i] = ubr
		ti.insert(t, i, u, ubr)
	}
	// Remove half.
	for i := uint32(0); i < 100; i++ {
		k, err := ti.tree.Remove(i, ubrs[i])
		if err != nil {
			t.Fatal(err)
		}
		if k == 0 {
			t.Fatalf("Remove(%d) removed nothing", i)
		}
	}
	// Removed objects must not appear in any point query.
	for iter := 0; iter < 60; iter++ {
		q := geom.Point{rng.Float64() * 1000, rng.Float64() * 1000}
		got, _, err := ti.tree.PointQueryInto(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range got {
			if e.ID < 100 {
				t.Fatalf("removed object %d still indexed", e.ID)
			}
		}
		// Survivors still complete.
		for id := uint32(100); id < 200; id++ {
			if ubrs[id].Contains(q) {
				found := false
				for _, e := range got {
					if e.ID == id {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("survivor %d lost", id)
				}
			}
		}
	}
}

func TestInsertDiffAndRemoveDiff(t *testing.T) {
	ti := newTestIndex(t, 2, 1000, 512, 1<<20)
	u := geom.NewRect(geom.Point{490, 490}, geom.Point{510, 510})
	oldUBR := geom.NewRect(geom.Point{400, 400}, geom.Point{600, 600})
	newUBR := geom.NewRect(geom.Point{300, 300}, geom.Point{700, 700})

	ti.ubrs[1] = oldUBR
	if err := ti.tree.Insert(1, u, oldUBR); err != nil {
		t.Fatal(err)
	}
	// Grow: add to leaves covered by newUBR only.
	ti.ubrs[1] = newUBR
	if err := ti.tree.InsertDiff(1, u, newUBR, oldUBR); err != nil {
		t.Fatal(err)
	}
	// Every point of newUBR must now find object 1.
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 100; iter++ {
		q := geom.Point{
			newUBR.Lo[0] + rng.Float64()*(newUBR.Hi[0]-newUBR.Lo[0]),
			newUBR.Lo[1] + rng.Float64()*(newUBR.Hi[1]-newUBR.Lo[1]),
		}
		got, _, err := ti.tree.PointQueryInto(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, e := range got {
			if e.ID == 1 {
				found = true
			}
		}
		if !found {
			t.Fatalf("after InsertDiff, point %v misses object", q)
		}
	}
	// Shrink back: remove from leaves outside oldUBR.
	ti.ubrs[1] = oldUBR
	if _, err := ti.tree.RemoveDiff(1, newUBR, oldUBR); err != nil {
		t.Fatal(err)
	}
	// Points inside oldUBR still find it.
	for iter := 0; iter < 100; iter++ {
		q := geom.Point{
			oldUBR.Lo[0] + rng.Float64()*(oldUBR.Hi[0]-oldUBR.Lo[0]),
			oldUBR.Lo[1] + rng.Float64()*(oldUBR.Hi[1]-oldUBR.Lo[1]),
		}
		got, _, _ := ti.tree.PointQueryInto(q, nil)
		found := false
		for _, e := range got {
			if e.ID == 1 {
				found = true
			}
		}
		if !found {
			t.Fatalf("after RemoveDiff, point %v inside old UBR misses object", q)
		}
	}
}

func TestRangeIDs(t *testing.T) {
	ti := newTestIndex(t, 2, 1000, 512, 1<<20)
	a := geom.NewRect(geom.Point{100, 100}, geom.Point{120, 120})
	b := geom.NewRect(geom.Point{800, 800}, geom.Point{820, 820})
	ti.insert(t, 1, a, a.Expand(10))
	ti.insert(t, 2, b, b.Expand(10))
	ids, err := ti.tree.RangeIDs(geom.NewRect(geom.Point{0, 0}, geom.Point{200, 200}), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(ids, 1) {
		t.Fatal("range query missed object 1")
	}
	// Enough wide UBRs to split the root, so most IDs sit in several leaves:
	// the whole domain's window still lists each ID once, ascending.
	rng := rand.New(rand.NewSource(7))
	want := []uint32{1, 2}
	for id := uint32(3); id < 200; id++ {
		lo := geom.Point{rng.Float64() * 900, rng.Float64() * 900}
		u := geom.NewRect(lo, geom.Point{lo[0] + 5, lo[1] + 5})
		ti.insert(t, id, u, u.Expand(60))
		want = append(want, id)
	}
	ids, err = ti.tree.RangeIDs(geom.UnitCube(2, 1000), ids)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(ids, want) {
		t.Fatalf("whole-domain window lists %d IDs, want 1…199 once each, ascending", len(ids))
	}
	// Note: coarse leaves may include far-away objects (the root leaf spans
	// everything before splits); RangeIDs over-approximates by design.
}

func TestIOCounting(t *testing.T) {
	store := pagestore.New(512)
	tree, err := New(Config{
		Domain:    geom.UnitCube(2, 1000),
		Store:     store,
		MemBudget: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	for i := uint32(0); i < 200; i++ {
		u := randSubRect(rng, 1000, 10, 2)
		if err := tree.Insert(i, u, u.Expand(20)); err != nil {
			t.Fatal(err)
		}
	}
	before := store.Stats()
	if _, _, err := tree.PointQueryInto(geom.Point{500, 500}, nil); err != nil {
		t.Fatal(err)
	}
	delta := store.Stats().Sub(before)
	if delta.Reads == 0 {
		t.Fatal("point query recorded no page reads")
	}
	if delta.Writes != 0 {
		t.Fatal("point query wrote pages")
	}
	st := tree.TreeStats()
	if int(delta.Reads) > st.Pages {
		t.Fatalf("query read %d pages, tree has %d", delta.Reads, st.Pages)
	}
}

func TestValidateAfterMutationSequences(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	ti := newTestIndex(t, 2, 1000, 256, 1<<20)
	ubrs := map[uint32]geom.Rect{}
	for i := uint32(0); i < 400; i++ {
		u := randSubRect(rng, 1000, 12, 2)
		ubr := u.Expand(rng.Float64() * 40)
		ubrs[i] = ubr
		ti.insert(t, i, u, ubr)
		if i%97 == 0 {
			if err := ti.tree.Validate(); err != nil {
				t.Fatalf("after insert %d: %v", i, err)
			}
		}
	}
	if err := ti.tree.Validate(); err != nil {
		t.Fatalf("after all inserts: %v", err)
	}
	for i := uint32(0); i < 400; i += 3 {
		if _, err := ti.tree.Remove(i, ubrs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := ti.tree.Validate(); err != nil {
		t.Fatalf("after removals: %v", err)
	}
}

func TestSizeAccounting(t *testing.T) {
	ti := newTestIndex(t, 2, 1000, 256, 1<<20)
	rng := rand.New(rand.NewSource(7))
	for i := uint32(0); i < 150; i++ {
		u := randSubRect(rng, 1000, 10, 2)
		ti.insert(t, i, u, u.Expand(10))
	}
	st := ti.tree.TreeStats()
	// Count entries by scanning all leaves through point queries is not
	// exhaustive; instead verify size is at least the object count (each
	// object has >= 1 copy) and consistent after removals.
	if st.Entries < 150 {
		t.Fatalf("entries = %d < object count", st.Entries)
	}
	before := ti.tree.Size()
	removed, err := ti.tree.Remove(3, ti.ubrs[3])
	if err != nil {
		t.Fatal(err)
	}
	if ti.tree.Size() != before-removed {
		t.Fatalf("size accounting: %d -> %d after removing %d", before, ti.tree.Size(), removed)
	}
}
