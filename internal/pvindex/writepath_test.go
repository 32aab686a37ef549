package pvindex

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"pvoronoi/internal/dataset"
	"pvoronoi/internal/geom"
	"pvoronoi/internal/race"
	"pvoronoi/internal/uncertain"
)

// TestLookupUBRHeaderOnly: the writer's UBR read returns the stored UBR and
// allocates its one coordinate array whatever the record's size (the d=3
// records here span two pages); so do the readers' Index.UBR and Pinned.UBR,
// which read the same header.
func TestLookupUBRHeaderOnly(t *testing.T) {
	db := dataset.Synthetic(dataset.SyntheticParams{N: 120, Dim: 3, MaxSide: 400, Instances: 200, Seed: 3})
	ix, err := Build(db, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	pin := ix.Pin()
	defer pin.Release()
	w := ix.newWorking(ix.current.Load())
	defer w.abort()
	for _, o := range db.Objects() {
		got, ok := w.lookupUBR(uint32(o.ID))
		if !ok {
			t.Fatalf("object %d: no UBR", o.ID)
		}
		buf, found, err := w.secondary.Get(uint32(o.ID))
		if err != nil || !found {
			t.Fatalf("object %d: record read: found=%v err=%v", o.ID, found, err)
		}
		if len(buf) <= ix.store.PageSize() {
			t.Fatalf("record of %d bytes fits one page; the test wants a chained value", len(buf))
		}
		rec, err := decodeRecord(buf)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(rec.UBR) {
			t.Fatalf("object %d: lookupUBR %v, record holds %v", o.ID, got, rec.UBR)
		}
		for name, read := range map[string]func(uncertain.ID) (geom.Rect, bool){"Index.UBR": ix.UBR, "Pinned.UBR": pin.UBR} {
			if r, ok := read(o.ID); !ok || !sameRectBits(r, rec.UBR) {
				t.Fatalf("object %d: %s %v, record holds %v", o.ID, name, r, rec.UBR)
			}
		}
	}
	if _, ok := w.lookupUBR(1 << 30); ok {
		t.Fatal("lookupUBR found an ID that was never stored")
	}
	if _, ok := ix.UBR(1 << 30); ok {
		t.Fatal("Index.UBR found an ID that was never stored")
	}
	for name, read := range map[string]func(){
		"lookupUBR":  func() { w.lookupUBR(7) },
		"Index.UBR":  func() { ix.UBR(7) },
		"Pinned.UBR": func() { pin.UBR(7) },
	} {
		if allocs := testing.AllocsPerRun(200, read); !race.Enabled && allocs > 1 {
			t.Fatalf("%s allocates %.0f times, budget 1", name, allocs)
		}
	}
}

// TestApplyBatchAllocBudget: one batch of 16 inserts into a 2 000-object d=2
// index with 100-instance pdfs, then one batch deleting them again. Before the
// writer read UBRs from record headers and adjacency rows and browsed with
// pooled iterators, the insert batch allocated 391 211 times (measured at the
// parent commit with this test's code); the budget is a tenth of that, the
// count now 10 k. Before SE runs took their tester, face memory and C-set from
// a pooled workspace and the writer encoded records and decoded buckets into
// buffers it owns, the two batches allocated 7 434 040 and 7 866 784 bytes
// (now ≈ 0.8 MB each); the byte budgets are a third of those.
func TestApplyBatchAllocBudget(t *testing.T) {
	const parent, budget = 391_211, 39_100
	const insertBytes, deleteBytes = 7_434_040 / 3, 7_866_784 / 3
	p := dataset.SyntheticParams{N: 2000, Dim: 2, MaxSide: 60, Instances: 100, Seed: 1}
	ix, err := Build(dataset.Synthetic(p), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p.N, p.Seed = 32, 2
	fresh := dataset.Synthetic(p).Objects()
	ups := make([]Update, len(fresh))
	for i, o := range fresh {
		o.ID += 10_000
		ups[i] = Update{Op: OpInsert, Object: o}
	}
	if _, err := ix.ApplyBatch(ups[:16]); err != nil { // warm pools
		t.Fatal(err)
	}
	apply := func(ups []Update) (allocs, bytes uint64) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if _, err := ix.ApplyBatch(ups); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		return m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc
	}
	allocs, insBytes := apply(ups[16:])
	for i, o := range fresh[16:] {
		ups[i] = Update{Op: OpDelete, ID: o.ID}
	}
	_, delBytes := apply(ups[:16])
	t.Logf("ApplyBatch of 16 inserts: %d allocations (parent %d), %d bytes; of 16 deletes: %d bytes", allocs, parent, insBytes, delBytes)
	if race.Enabled {
		return
	}
	if allocs > budget {
		t.Errorf("ApplyBatch of 16 inserts allocates %d times, budget %d", allocs, budget)
	}
	if insBytes > insertBytes {
		t.Errorf("ApplyBatch of 16 inserts allocates %d bytes, budget %d", insBytes, insertBytes)
	}
	if delBytes > deleteBytes {
		t.Errorf("ApplyBatch of 16 deletes allocates %d bytes, budget %d", delBytes, deleteBytes)
	}
}

// TestBuildAllocBudget: a build on the uni2 shape at n 2 000 allocates, per
// object, its share of the pages, trees and records it keeps — not a tester,
// face memory and C-set per SE run, nor a record encoding and a bucket decode
// per write. Before those came from a pooled workspace and writer-owned
// buffers it allocated 50 358 bytes per object (now ≈ 7.3 kB); the budget is
// a third of that.
func TestBuildAllocBudget(t *testing.T) {
	const budget = 50_358 / 3
	db := dataset.Synthetic(dataset.SyntheticParams{N: 2000, Dim: 2, MaxSide: 60, Instances: 100, Seed: 1})
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if _, err := BuildParallel(db, DefaultConfig(), 2); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	perObject := (m1.TotalAlloc - m0.TotalAlloc) / uint64(db.Len())
	t.Logf("BuildParallel allocates %d bytes per object", perObject)
	if !race.Enabled && perObject > budget {
		t.Errorf("BuildParallel allocates %d bytes per object, budget %d", perObject, budget)
	}
}

// TestBatchStageTimes: the named stages of a batch — SE, index maintenance,
// refinement (hub scoring included) — account for the batch. On one
// processor (so worker time is wall time) they never sum to more than
// ApplyBatch's wall clock, staging included, and in the best of four batches
// (one GC cycle outside the timers must not fail the test) to at least 80 %
// of it.
func TestBatchStageTimes(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	p := dataset.SyntheticParams{N: 2000, Dim: 2, MaxSide: 60, Instances: 100, Seed: 1}
	ix, err := Build(dataset.Synthetic(p), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	const batches, size = 4, 16
	p.N, p.Seed = batches*size, 2
	fresh := dataset.Synthetic(p).Objects()
	best := 0.0
	for b := 0; b < batches; b++ {
		var ups []Update
		for _, o := range fresh[b*size : (b+1)*size] {
			o.ID += 10_000
			ups = append(ups, Update{Op: OpInsert, Object: o})
		}
		start := time.Now()
		sts, err := ix.ApplyBatch(ups)
		wall := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		var se, index, refine time.Duration
		for i, st := range sts {
			se += st.SETime
			index += st.IndexTime
			refine += st.SE.Refine.Time
			if i > 0 && st.SE.Refine.Time != 0 {
				t.Fatalf("batch %d op %d carries refinement time %v; it belongs to the batch's first op", b, i, st.SE.Refine.Time)
			}
		}
		named := se + index + refine
		t.Logf("wall %v = SE %v + index %v + refinement %v + unnamed %v", wall, se, index, refine, wall-named)
		if refine <= 0 {
			t.Fatalf("batch %d reports no refinement time", b)
		}
		if named > wall {
			t.Fatalf("batch %d: named stages %v exceed the batch's wall time %v", b, named, wall)
		}
		best = max(best, float64(named)/float64(wall))
	}
	if !race.Enabled && best < 0.8 {
		t.Fatalf("named stages are at best %.0f %% of a batch's wall time, want 80 %%", 100*best)
	}
}

// TestAdjacencyThroughSeededMix runs the degree oracle after every one of 40
// seeded batches of every kind the write path has — inserts, deletes, a
// same-ID replace, deletes then inserts in one batch — with refinement aimed
// at every row so most batches also re-refine.
func TestAdjacencyThroughSeededMix(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4)) // several SE workers on any machine
	for _, d := range []int{2, 3} {
		t.Run(fmt.Sprintf("d%d", d), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(40 + d)))
			const span, maxSide = 500.0, 40.0
			ix, err := Build(randomDB(rng, 80, d, span, maxSide, false), aggressiveRefine(t))
			if err != nil {
				t.Fatal(err)
			}
			verifyDegrees(t, ix, "after build")
			built := int64(ix.Build.SE.Refine.Rows)
			nextID := uncertain.ID(5000)
			fresh := func() Update {
				nextID++
				return Update{Op: OpInsert, Object: randomObject(rng, nextID, d, span, maxSide)}
			}
			victim := func(ups []Update) Update {
				objs := ix.DB().Objects()
				for {
					id := objs[rng.Intn(len(objs))].ID
					dup := false
					for _, u := range ups {
						dup = dup || (u.Op == OpDelete && u.ID == id)
					}
					if !dup {
						return Update{Op: OpDelete, ID: id}
					}
				}
			}
			for b := 0; b < 40; b++ {
				var ups []Update
				kind := b % 4
				switch kind {
				case 0: // inserts only: the set-at-a-time path
					for i := 0; i < 1+rng.Intn(6); i++ {
						ups = append(ups, fresh())
					}
				case 1: // deletes only
					for i := 0; i < 1+rng.Intn(4); i++ {
						ups = append(ups, victim(ups))
					}
				case 2: // same-ID replace, beside an unrelated insert
					del := victim(nil)
					ups = []Update{del, {Op: OpInsert, Object: randomObject(rng, del.ID, d, span, maxSide)}, fresh()}
				case 3: // deletes, then inserts that may land in the freed space
					ups = []Update{victim(nil), fresh()}
					ups = append(ups, victim(ups), fresh(), fresh())
				}
				if _, err := ix.ApplyBatch(ups); err != nil {
					t.Fatalf("batch %d (kind %d): %v", b, kind, err)
				}
				verifyDegrees(t, ix, fmt.Sprintf("after batch %d (kind %d)", b, kind))
			}
			if ix.RefineCounters().RowsRefined == built {
				t.Fatal("40 batches re-refined no row; the mix no longer exercises the incremental pass")
			}
		})
	}
}
