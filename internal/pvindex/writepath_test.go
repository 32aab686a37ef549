package pvindex

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"pvoronoi/internal/dataset"
	"pvoronoi/internal/race"
	"pvoronoi/internal/uncertain"
)

// TestLookupUBRHeaderOnly: the writer's UBR read returns the stored UBR,
// allocates its one coordinate array whatever the record's size (the d=3
// records here span two pages), and neither probes nor fills the readers'
// record cache.
func TestLookupUBRHeaderOnly(t *testing.T) {
	db := dataset.Synthetic(dataset.SyntheticParams{N: 120, Dim: 3, MaxSide: 400, Instances: 200, Seed: 3})
	ix, err := Build(db, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	before := ix.RecordCacheStats()
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
	}
	if _, ok := w.lookupUBR(1 << 30); ok {
		t.Fatal("lookupUBR found an ID that was never stored")
	}
	if after := ix.RecordCacheStats(); after != before {
		t.Fatalf("writer reads moved the record cache: %+v -> %+v", before, after)
	}
	allocs := testing.AllocsPerRun(200, func() { w.lookupUBR(7) })
	if !race.Enabled && allocs > 1 {
		t.Fatalf("lookupUBR allocates %.0f times, budget 1", allocs)
	}
}

// TestApplyBatchAllocBudget: one batch of 16 inserts into a 2 000-object d=2
// index with 100-instance pdfs. Before the writer read UBRs from record
// headers and adjacency rows and browsed with pooled iterators, this very
// batch allocated 391 211 times (measured at the parent commit with this
// test's code); the budget is a tenth of that, the count now 24 k.
func TestApplyBatchAllocBudget(t *testing.T) {
	const parent, budget = 391_211, 39_100
	p := dataset.SyntheticParams{N: 2000, Dim: 2, MaxSide: 60, Instances: 100, Seed: 1}
	ix, err := Build(dataset.Synthetic(p), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p.N, p.Seed = 32, 2
	fresh := dataset.Synthetic(p).Objects()
	batch := func(objs []*uncertain.Object) []Update {
		ups := make([]Update, len(objs))
		for i, o := range objs {
			o.ID += 10_000
			ups[i] = Update{Op: OpInsert, Object: o}
		}
		return ups
	}
	if _, err := ix.ApplyBatch(batch(fresh[:16])); err != nil { // warm pools
		t.Fatal(err)
	}
	ups := batch(fresh[16:])
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if _, err := ix.ApplyBatch(ups); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	allocs := m1.Mallocs - m0.Mallocs
	t.Logf("ApplyBatch of 16 inserts: %d allocations (parent %d)", allocs, parent)
	if !race.Enabled && allocs > budget {
		t.Fatalf("ApplyBatch of 16 inserts allocates %d times, budget %d", allocs, budget)
	}
}

// TestBatchStageTimes: the named stages of a batch — SE, index maintenance,
// adjacency patch, refinement — account for the batch. On one processor
// (so worker time is wall time) they never sum to more than ApplyBatch's
// wall clock, staging included, and in the best of four batches (one GC
// cycle outside the timers must not fail the test) to at least 80 % of it;
// before the adjacency patch had a timer they covered 55 %.
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
		var se, index, adj, refine time.Duration
		for i, st := range sts {
			se += st.SETime
			index += st.IndexTime
			adj += st.AdjTime
			refine += st.SE.Refine.Time
			if i > 0 && st.AdjTime != 0 {
				t.Fatalf("batch %d op %d carries adjacency time %v; it belongs to the batch's first op", b, i, st.AdjTime)
			}
		}
		named := se + index + adj + refine
		t.Logf("wall %v = SE %v + index %v + adjacency %v + refinement %v + unnamed %v", wall, se, index, adj, refine, wall-named)
		if adj <= 0 {
			t.Fatalf("batch %d reports no adjacency time", b)
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

// TestAdjacencyThroughSeededMix runs the adjacency oracle after every one of
// 40 seeded batches of every kind the write path has — inserts, deletes, a
// same-ID replace, deletes then inserts in one batch, an explicit Refine —
// with refinement aimed at every row so most batches patch the graph twice.
func TestAdjacencyThroughSeededMix(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4)) // several SE workers on any machine
	for _, d := range []int{2, 3} {
		t.Run(fmt.Sprintf("d%d", d), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(40 + d)))
			const span, maxSide = 500.0, 40.0
			cfg := aggressiveRefine()
			ix, err := Build(randomDB(rng, 80, d, span, maxSide, false), cfg)
			if err != nil {
				t.Fatal(err)
			}
			verifyAdjacency(t, ix, "after build")
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
				kind := b % 5
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
				case 4:
					if _, err := ix.Refine(); err != nil {
						t.Fatal(err)
					}
				}
				if len(ups) > 0 {
					if _, err := ix.ApplyBatch(ups); err != nil {
						t.Fatalf("batch %d (kind %d): %v", b, kind, err)
					}
				}
				verifyAdjacency(t, ix, fmt.Sprintf("after batch %d (kind %d)", b, kind))
			}
			if ix.Adjacency().RowsPatched == 0 {
				t.Fatal("40 batches patched no neighbor row; the mix no longer exercises the patch path")
			}
		})
	}
}
