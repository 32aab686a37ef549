package pvoronoi

import (
	"math"
	"math/rand"
	"testing"

	"pvoronoi/internal/bruteforce"
)

func buildSmallDB(t testing.TB, n int, withPDF bool) *DB {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	db := NewDB(NewRect(Point{0, 0}, Point{1000, 1000}))
	for i := 0; i < n; i++ {
		lo := Point{rng.Float64() * 950, rng.Float64() * 950}
		region := NewRect(lo, Point{lo[0] + 5 + rng.Float64()*30, lo[1] + 5 + rng.Float64()*30})
		o := &Object{ID: ID(i), Region: region}
		if withPDF {
			o.Instances = SampleUniform(region, 30, int64(i))
		}
		if err := db.Add(o); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func testOptions() Options {
	o := DefaultOptions()
	o.K = 20
	o.KPartition = 3
	o.KGlobal = 40
	o.MemBudget = 1 << 18
	return o
}

func TestPublicAPIRoundTrip(t *testing.T) {
	db := buildSmallDB(t, 80, true)
	ix, err := Build(db, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 40; iter++ {
		q := Point{rng.Float64() * 1000, rng.Float64() * 1000}

		cands, err := ix.PossibleNN(q)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteforce.PossibleNN(db, q)
		if len(cands) != len(want) {
			t.Fatalf("Step 1: %d candidates, want %d", len(cands), len(want))
		}

		results, err := ix.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, r := range results {
			sum += r.Prob
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Fatalf("probabilities sum to %g", sum)
		}
		// Results must be sorted by decreasing probability.
		for i := 1; i < len(results); i++ {
			if results[i].Prob > results[i-1].Prob {
				t.Fatal("results not sorted")
			}
		}
	}
}

// A NaN or infinite query coordinate is an error, not an empty answer.
func TestNonFiniteQueryPointIsAnError(t *testing.T) {
	ix, err := Build(buildSmallDB(t, 30, true), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []Point{{math.NaN(), math.NaN()}, {500, math.Inf(1)}} {
		if res, err := ix.Query(q); err == nil {
			t.Errorf("Query(%v) = %v, nil error", q, res)
		}
		if res, err := ix.PossibleKNN(q, 2); err == nil {
			t.Errorf("PossibleKNN(%v) = %v, nil error", q, res)
		}
	}
}

func TestPublicAPIUpdates(t *testing.T) {
	db := buildSmallDB(t, 60, false)
	ix, err := Build(db, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	region := NewRect(Point{480, 480}, Point{520, 520})
	if err := ix.Insert(&Object{ID: 999, Region: region}); err != nil {
		t.Fatal(err)
	}
	cands, err := ix.PossibleNN(Point{500, 500})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range cands {
		if c.ID == 999 {
			found = true
		}
	}
	if !found {
		t.Fatal("inserted object not a possible NN of its own center")
	}
	if err := ix.Delete(999); err != nil {
		t.Fatal(err)
	}
	cands, _ = ix.PossibleNN(Point{500, 500})
	for _, c := range cands {
		if c.ID == 999 {
			t.Fatal("deleted object still returned")
		}
	}
	// Consistency with brute force after updates.
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 30; iter++ {
		q := Point{rng.Float64() * 1000, rng.Float64() * 1000}
		got, err := ix.PossibleNN(q)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteforce.PossibleNN(ix.DB(), q)
		if len(got) != len(want) {
			t.Fatalf("after updates: %d vs %d", len(got), len(want))
		}
	}
}

func TestPublicAPIUBRAndIO(t *testing.T) {
	db := buildSmallDB(t, 50, false)
	ix, err := Build(db, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	ubr, ok := ix.UBR(1)
	if !ok {
		t.Fatal("UBR missing")
	}
	if !ubr.ContainsRect(db.Get(1).Region) {
		t.Fatal("UBR does not contain the region")
	}
	before := ix.IO()
	if _, err := ix.PossibleNN(Point{500, 500}); err != nil {
		t.Fatal(err)
	}
	after := ix.IO()
	io := IOStats{Reads: after.Reads - before.Reads, Writes: after.Writes - before.Writes}
	if io.Reads == 0 {
		t.Fatal("no I/O counted")
	}
	if io.Writes != 0 {
		t.Fatal("query should not write")
	}
}

func TestSampleHelpers(t *testing.T) {
	region := NewRect(Point{0, 0}, Point{10, 10})
	for _, ins := range [][]Instance{
		SampleUniform(region, 100, 1),
		SampleGaussian(region, 100, 1),
	} {
		if len(ins) != 100 {
			t.Fatalf("len=%d", len(ins))
		}
		var sum float64
		for _, in := range ins {
			if !region.Contains(in.Pos) {
				t.Fatal("instance outside region")
			}
			sum += in.Prob
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("sum=%g", sum)
		}
	}
}

func TestDefaultOptionsMatchPaper(t *testing.T) {
	o := DefaultOptions()
	if o.Delta != 1 || o.MMax != 10 || o.K != 200 || o.KPartition != 10 || o.KGlobal != 200 {
		t.Fatalf("defaults drifted from Table I: %+v", o)
	}
	if o.Strategy != CSetIS {
		t.Fatal("default strategy should be IS")
	}
	if o.MemBudget != 5<<20 || o.PageSize != 4096 {
		t.Fatalf("resource defaults: %+v", o)
	}
}
