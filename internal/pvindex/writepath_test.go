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

// TestLookupUBRHeaderOnly: the writer's UBR read returns the stored UBR —
// the table slot's coordinates, bit for bit — and allocates its one
// coordinate array whatever the pdf's size; so do the readers' Index.UBR and
// version.ubr, which read the same slot.
func TestLookupUBRHeaderOnly(t *testing.T) {
	db := dataset.Synthetic(dataset.SyntheticParams{N: 120, Dim: 3, MaxSide: 400, Instances: 200, Seed: 3})
	ix, err := Build(db, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	pin := ix.pin()
	defer ix.unpin(pin)
	w := ix.newWorking(ix.current.Load())
	defer w.abort()
	slots := map[uint32]geom.Rect{}
	img := pin.ubrs.image()
	for i, id := range img.IDs {
		lohi := img.Coords[6*i : 6*i+6]
		slots[id] = geom.Rect{Lo: lohi[:3], Hi: lohi[3:]}
	}
	if len(slots) != db.Len() {
		t.Fatalf("%d table slots for %d objects", len(slots), db.Len())
	}
	for _, o := range db.Objects() {
		want := slots[uint32(o.ID)]
		for name, read := range map[string]func(uncertain.ID) (geom.Rect, bool){
			"lookupUBR":   func(id uncertain.ID) (geom.Rect, bool) { return w.lookupUBR(uint32(id)) },
			"Index.UBR":   ix.UBR,
			"version.ubr": pin.ubr,
		} {
			if r, ok := read(o.ID); !ok || !sameRectBits(r, want) {
				t.Fatalf("object %d: %s %v, the table holds %v", o.ID, name, r, want)
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
		"lookupUBR":   func() { w.lookupUBR(7) },
		"Index.UBR":   func() { ix.UBR(7) },
		"version.ubr": func() { pin.ubr(7) },
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
// parent commit with this test's code). With UBRs in a table instead of hash
// records and no whole-database clone the batches allocate ≈ 3 650 times and
// ≈ 733 kB and 457 kB (they were ≈ 3 750 times, 840 and 520 kB), and the
// budgets keep the margins they had over those: ×10.4, ×2.95 and ×5.
func TestApplyBatchAllocBudget(t *testing.T) {
	const parent, budget = 391_211, 38_000
	const insertBytes, deleteBytes = 2_160_000, 2_290_000
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
// object, its share of the pages, trees and tables it keeps — not a tester,
// face memory and C-set per SE run per object. Before those came from a
// pooled workspace and writer-owned buffers it allocated 50 358 bytes per
// object; with hash records it allocated ≈ 7 650 under a budget of 16 786,
// and without them ≈ 3 480, under a budget with the same margin, ×2.19.
func TestBuildAllocBudget(t *testing.T) {
	const budget = 7_600
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

// TestBatchStageTimes: the named stages of a batch — SE and index
// maintenance — account for the batch. On one processor (so worker time is
// wall time) they never sum to more than ApplyBatch's wall clock, and in
// the best of four batches (one GC cycle outside the timers must not fail
// the test) to at least 80 % of it. Refinement is a share of
// SE time: an op that escalated rows reports a positive refinement time no
// larger than its SE time.
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
			if st.SE.Refine.Rows > 0 && (st.SE.Refine.Time <= 0 || st.SE.Refine.Time > st.SETime) {
				t.Fatalf("batch %d op %d escalated %d rows in %v of its SE time %v", b, i, st.SE.Refine.Rows, st.SE.Refine.Time, st.SETime)
			}
		}
		named := se + index
		t.Logf("wall %v = SE %v (refinement %v of it) + index %v + unnamed %v", wall, se, refine, index, wall-named)
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
// same-ID replace, deletes then inserts in one batch — with every SE job's
// row fat, so most batches also refine.
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
				t.Fatal("40 batches refined no row; the mix no longer exercises escalation on the write path")
			}
		})
	}
}
