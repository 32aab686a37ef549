package pvindex

import (
	"math/rand"
	"testing"
	"time"

	"pvoronoi/internal/dataset"
	"pvoronoi/internal/extquery"
	"pvoronoi/internal/geom"
	"pvoronoi/internal/race"
	"pvoronoi/internal/uncertain"
)

func benchIndex(b *testing.B, n int) *Index {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	db := randomDB(rng, n, 3, 10000, 60, false)
	cfg := DefaultConfig()
	ix, err := Build(db, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return ix
}

// benchIndexInstances is benchIndex with pdf instances, so Snapshot's Step-2
// data access has real pdfs to hand over.
func benchIndexInstances(b *testing.B, n int) *Index {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	db := randomDB(rng, n, 3, 10000, 60, true)
	cfg := DefaultConfig()
	ix, err := Build(db, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return ix
}

func benchPoint(rng *rand.Rand) geom.Point {
	return geom.Point{rng.Float64() * 10000, rng.Float64() * 10000, rng.Float64() * 10000}
}

// BenchmarkPossibleNN measures the Step-1 hot loop: octree point query plus
// candidate pruning.
func BenchmarkPossibleNN(b *testing.B) {
	ix := benchIndex(b, 2000)
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ix.PossibleNN(benchPoint(rng)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshot measures the full atomic read: Step 1 plus every
// candidate's pdf instances from the pinned version.
func BenchmarkSnapshot(b *testing.B) {
	ix := benchIndexInstances(b, 2000)
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ix.Snapshot(benchPoint(rng)); err != nil {
			b.Fatal(err)
		}
	}
}

// step2Points are the query points the Step-2 allocation tests cycle over.
func step2Points() []geom.Point {
	qrng := rand.New(rand.NewSource(2))
	points := make([]geom.Point, 32)
	for i := range points {
		points[i] = benchPoint(qrng)
	}
	return points
}

// allocsPerQuery warms fn over every point (the scratch pools fill on the
// first pass), then returns its allocations per call, cycling over them.
func allocsPerQuery(t *testing.T, points []geom.Point, fn func(q geom.Point) error) float64 {
	t.Helper()
	for _, q := range points {
		if err := fn(q); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	return testing.AllocsPerRun(200, func() {
		if err := fn(points[i%len(points)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
}

// TestSnapshotAllocBudget pins the atomic read's allocations: 9 per
// Snapshot whatever it returns — Step 1's survivors and their sort, the
// snapshot and its instance-slice header. No record is decoded (a decode
// costs 4 allocations per candidate): every candidate's pdf is read in place.
func TestSnapshotAllocBudget(t *testing.T) {
	t.Run("warm", func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		ix, err := Build(randomDB(rng, 500, 3, 10000, 60, true), DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		allocs := allocsPerQuery(t, step2Points(), func(q geom.Point) error {
			_, err := ix.Snapshot(q)
			return err
		})
		// Race instrumentation inflates allocation counts (notably on
		// 1-core machines), so the workload runs under -race but the
		// budget is only asserted in uninstrumented builds.
		if race.Enabled {
			t.Logf("race detector enabled: skipping alloc budget assertion (measured %.1f)", allocs)
			return
		}
		if allocs > 10 {
			t.Fatalf("Snapshot allocates %.1f times per op, budget is 10", allocs)
		}
	})
}

// TestStep2AllocsIndependentOfPDFSize: Step 2's data access reads the pinned
// version's own objects, so a warm Snapshot, KNNSnapshot or GroupNNSnapshot
// allocates exactly as often over 200-instance pdfs as over 20-instance ones
// — same regions, hence the same UBRs and candidates; only the pdfs differ.
func TestStep2AllocsIndependentOfPDFSize(t *testing.T) {
	points := step2Points()
	measure := func(instances int) map[string]float64 {
		db := randomDB(rand.New(rand.NewSource(1)), 500, 3, 10000, 60, false)
		prng := rand.New(rand.NewSource(3))
		for _, o := range db.Objects() {
			o.Instances = uncertain.SampleInstances(o.Region, uncertain.PDFUniform, instances, prng)
		}
		ix, err := Build(db, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		group := func(q geom.Point) []geom.Point {
			return []geom.Point{q, {q[0] + 300, q[1], q[2]}, {q[0], q[1] + 300, q[2]}, {q[0], q[1], q[2] + 300}}
		}
		return map[string]float64{
			"Snapshot": allocsPerQuery(t, points, func(q geom.Point) error {
				_, err := ix.Snapshot(q)
				return err
			}),
			"KNNSnapshot": allocsPerQuery(t, points, func(q geom.Point) error {
				_, err := ix.KNNSnapshot(q, 8)
				return err
			}),
			"GroupNNSnapshot": allocsPerQuery(t, points, func(q geom.Point) error {
				_, err := ix.GroupNNSnapshot(group(q), extquery.AggSum)
				return err
			}),
		}
	}
	small, large := measure(20), measure(200)
	for name, s := range small {
		t.Logf("%s: %.1f allocations at 20 instances per object, %.1f at 200", name, s, large[name])
		if !race.Enabled && s != large[name] {
			t.Errorf("%s allocates %.1f times at 20 instances per object, %.1f at 200", name, s, large[name])
		}
	}
}

// TestPossibleNNAllocBudget pins the Step-1 hot loop's allocation budget
// (measured: 7 allocs/op).
func TestPossibleNNAllocBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	db := randomDB(rng, 500, 3, 10000, 60, false)
	ix, err := Build(db, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	qrng := rand.New(rand.NewSource(2))
	points := make([]geom.Point, 32)
	for i := range points {
		points[i] = benchPoint(qrng)
	}
	for _, q := range points {
		if _, err := ix.PossibleNN(q); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := ix.PossibleNN(points[i%len(points)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	// Known failure under -race on 1-core machines since PR 3: the race
	// runtime's bookkeeping allocates inside AllocsPerRun. The workload still
	// runs (and the call must succeed); only the budget is gated.
	if race.Enabled {
		t.Logf("race detector enabled: skipping alloc budget assertion (measured %.1f)", allocs)
		return
	}
	if allocs > 8 {
		t.Fatalf("PossibleNN allocates %.1f times per op, budget is 8", allocs)
	}
}

func BenchmarkIncrementalInsert(b *testing.B) {
	ix := benchIndex(b, 1000)
	rng := rand.New(rand.NewSource(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := geom.Point{rng.Float64() * 9900, rng.Float64() * 9900, rng.Float64() * 9900}
		o := &uncertain.Object{
			ID:     uncertain.ID(100000 + i),
			Region: geom.NewRect(lo, geom.Point{lo[0] + 30, lo[1] + 30, lo[2] + 30}),
		}
		if _, err := ix.Insert(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIncrementalDelete(b *testing.B) {
	// Rebuild a fresh index whenever the pool drains.
	ix := benchIndex(b, 2000)
	next := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if next >= 2000 {
			b.StopTimer()
			ix = benchIndex(b, 2000)
			next = 0
			b.StartTimer()
		}
		if _, err := ix.Delete(uncertain.ID(next)); err != nil {
			b.Fatal(err)
		}
		next++
	}
}

// BenchmarkApplyBatchPairs is the write path of the harness's ingest
// workload, in process: on the uni2 dataset (n 8000, d 2, 100 instances;
// clu2 is its clustered twin; uni3 is n 3000, d 3, 200 instances in batches
// of 4) one iteration applies an insert batch and the delete batch that
// removes it again. With
// -benchtime 20x -cpuprofile it is the profile quoted in
// docs/ARCHITECTURE.md "Write path".
func BenchmarkApplyBatchPairs(b *testing.B) {
	for _, c := range []struct {
		name  string
		p     dataset.SyntheticParams
		batch int
	}{
		{"uni2", dataset.SyntheticParams{N: 8000, Dim: 2, MaxSide: 60, Instances: 100, Seed: 1}, 16},
		{"clu2", dataset.SyntheticParams{N: 8000, Dim: 2, MaxSide: 60, Instances: 100, Seed: 1, Clustered: true}, 16},
		{"uni3", dataset.SyntheticParams{N: 3000, Dim: 3, MaxSide: 400, Instances: 200, Seed: 1}, 4},
	} {
		b.Run(c.name, func(b *testing.B) {
			db := dataset.Synthetic(c.p)
			ix, err := BuildParallel(db, DefaultConfig(), 0)
			if err != nil {
				b.Fatal(err)
			}
			extra := c.p
			extra.N, extra.Seed = b.N*c.batch, 2
			fresh := dataset.Synthetic(extra).Objects()
			var insert, remove time.Duration
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ins := make([]Update, c.batch)
				del := make([]Update, c.batch)
				for k, o := range fresh[i*c.batch : (i+1)*c.batch] {
					o.ID += 1_000_000 // where the harness puts its new objects
					ins[k] = Update{Op: OpInsert, Object: o}
					del[k] = Update{Op: OpDelete, ID: o.ID}
				}
				t0 := time.Now()
				if _, err := ix.ApplyBatch(ins); err != nil {
					b.Fatal(err)
				}
				t1 := time.Now()
				if _, err := ix.ApplyBatch(del); err != nil {
					b.Fatal(err)
				}
				insert += t1.Sub(t0)
				remove += time.Since(t1)
			}
			b.ReportMetric(float64(insert)/float64(time.Millisecond)/float64(b.N), "insert_ms/batch")
			b.ReportMetric(float64(remove)/float64(time.Millisecond)/float64(b.N), "delete_ms/batch")
		})
	}
}
