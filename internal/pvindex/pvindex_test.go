package pvindex

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"pvoronoi/internal/bruteforce"
	"pvoronoi/internal/core"
	"pvoronoi/internal/extquery"
	"pvoronoi/internal/geom"
	"pvoronoi/internal/pagestore"
	"pvoronoi/internal/pnnq"
	"pvoronoi/internal/uncertain"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.MemBudget = 1 << 18
	cfg.Fanout = 16
	cfg.SE.K = 20
	cfg.SE.KPartition = 3
	cfg.SE.KGlobal = 40
	return cfg
}

func randomDB(rng *rand.Rand, n, d int, span, maxSide float64, withInstances bool) *uncertain.DB {
	db := uncertain.NewDB(geom.UnitCube(d, span))
	for i := 0; i < n; i++ {
		lo := make(geom.Point, d)
		hi := make(geom.Point, d)
		for j := 0; j < d; j++ {
			lo[j] = rng.Float64() * (span - maxSide)
			hi[j] = lo[j] + 1 + rng.Float64()*(maxSide-1)
		}
		o := &uncertain.Object{ID: uncertain.ID(i), Region: geom.Rect{Lo: lo, Hi: hi}}
		if withInstances {
			o.Instances = uncertain.SampleInstances(o.Region, uncertain.PDFUniform, 40, rng)
		}
		_ = db.Add(o)
	}
	return db
}

// instancesOf reads an object's pdf from the current version, as Step 2
// does.
func instancesOf(ix *Index, id uncertain.ID) ([]uncertain.Instance, error) {
	v := ix.pin()
	defer ix.unpin(v)
	return v.instances(id)
}

func idsOf(cands []Candidate) []uncertain.ID {
	out := make([]uncertain.ID, len(cands))
	for i, c := range cands {
		out[i] = c.ID
	}
	return out
}

func sameIDs(a, b []uncertain.ID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPossibleNNMatchesBruteForce is the end-to-end Step-1 equivalence: the
// PV-index must return exactly the brute-force possible-NN set.
func TestPossibleNNMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, d := range []int{2, 3} {
		for _, strat := range []core.CSetStrategy{core.CSetFS, core.CSetIS} {
			db := randomDB(rng, 150, d, 1000, 40, false)
			cfg := testConfig()
			cfg.SE.Strategy = strat
			ix, err := Build(db, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for iter := 0; iter < 100; iter++ {
				q := make(geom.Point, d)
				for j := range q {
					q[j] = rng.Float64() * 1000
				}
				got, err := ix.PossibleNN(q)
				if err != nil {
					t.Fatal(err)
				}
				want := bruteforce.PossibleNN(db, q)
				if !sameIDs(idsOf(got), want) {
					t.Fatalf("d=%d %v q=%v: PV-index %v, brute force %v", d, strat, q, idsOf(got), want)
				}
			}
		}
	}
}

func TestPossibleNNEmptyDB(t *testing.T) {
	db := uncertain.NewDB(geom.UnitCube(2, 100))
	ix, err := Build(db, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	got, err := ix.PossibleNN(geom.Point{50, 50})
	if err != nil || got != nil {
		t.Fatalf("empty DB: %v, %v", got, err)
	}
}

// A NaN or infinite query coordinate is an error on every query path, not an
// empty answer: no distance to such a point is ordered.
func TestNonFiniteQueryPointRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ix, err := Build(randomDB(rng, 40, 2, 100, 10, true), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []geom.Point{{math.NaN(), 50}, {50, math.Inf(1)}, {math.Inf(-1), math.NaN()}} {
		_, errNN := ix.PossibleNN(q)
		_, errSnap := ix.Snapshot(q)
		_, errKNN := ix.KNNSnapshot(q, 3)
		_, errGNN := ix.GroupNNSnapshot([]geom.Point{{10, 10}, q}, extquery.AggSum)
		_, _, errRNN := ix.RNNCandidates(q)
		for name, err := range map[string]error{"PossibleNN": errNN, "Snapshot": errSnap, "KNNSnapshot": errKNN, "GroupNNSnapshot": errGNN, "RNNCandidates": errRNN} {
			if !errors.Is(err, ErrNonFinitePoint) {
				t.Errorf("%s(%v): err = %v, want ErrNonFinitePoint", name, q, err)
			}
		}
	}
}

func TestUBRStored(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	db := randomDB(rng, 60, 2, 500, 25, false)
	ix, err := Build(db, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range db.Objects() {
		ubr, ok := ix.UBR(o.ID)
		if !ok {
			t.Fatalf("UBR of %d missing", o.ID)
		}
		if !ubr.ContainsRect(o.Region) {
			t.Fatalf("stored UBR %v does not contain region %v", ubr, o.Region)
		}
	}
}

// TestIncrementalInsertMatchesRebuild inserts objects one by one and checks
// query equivalence against both brute force and a from-scratch rebuild.
func TestIncrementalInsertMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	db := randomDB(rng, 100, 2, 1000, 35, false)
	ix, err := Build(db, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Insert 20 new objects incrementally.
	for i := 0; i < 20; i++ {
		lo := geom.Point{rng.Float64() * 960, rng.Float64() * 960}
		o := &uncertain.Object{
			ID:     uncertain.ID(1000 + i),
			Region: geom.NewRect(lo, geom.Point{lo[0] + 5 + rng.Float64()*30, lo[1] + 5 + rng.Float64()*30}),
		}
		st, err := ix.Insert(o)
		if err != nil {
			t.Fatal(err)
		}
		if st.Examined == 0 {
			t.Error("insert examined no objects")
		}
	}
	for iter := 0; iter < 150; iter++ {
		q := geom.Point{rng.Float64() * 1000, rng.Float64() * 1000}
		got, err := ix.PossibleNN(q)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteforce.PossibleNN(ix.DB(), q)
		if !sameIDs(idsOf(got), want) {
			t.Fatalf("after inserts, q=%v: got %v want %v", q, idsOf(got), want)
		}
	}
}

// TestIncrementalDeleteMatchesRebuild deletes objects and checks equivalence.
func TestIncrementalDeleteMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	db := randomDB(rng, 120, 2, 1000, 35, false)
	ix, err := Build(db, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	perm := rng.Perm(120)
	for _, idx := range perm[:25] {
		if _, err := ix.Delete(uncertain.ID(idx)); err != nil {
			t.Fatal(err)
		}
	}
	for iter := 0; iter < 150; iter++ {
		q := geom.Point{rng.Float64() * 1000, rng.Float64() * 1000}
		got, err := ix.PossibleNN(q)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteforce.PossibleNN(ix.DB(), q)
		if !sameIDs(idsOf(got), want) {
			t.Fatalf("after deletes, q=%v: got %v want %v", q, idsOf(got), want)
		}
	}
}

// TestMixedUpdateWorkload interleaves inserts and deletes, continuously
// checking Step-1 equivalence — the paper's Inc-vs-Rebuild experiment in
// property form.
func TestMixedUpdateWorkload(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	db := randomDB(rng, 80, 3, 800, 40, false)
	ix, err := Build(db, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	nextID := 500
	live := make([]uncertain.ID, 0, 200)
	for _, o := range db.Objects() {
		live = append(live, o.ID)
	}
	for op := 0; op < 60; op++ {
		if rng.Intn(2) == 0 && len(live) > 20 {
			// Delete a random live object.
			k := rng.Intn(len(live))
			id := live[k]
			live = append(live[:k], live[k+1:]...)
			if _, err := ix.Delete(id); err != nil {
				t.Fatalf("op %d: delete %d: %v", op, id, err)
			}
		} else {
			lo := geom.Point{rng.Float64() * 750, rng.Float64() * 750, rng.Float64() * 750}
			o := &uncertain.Object{
				ID:     uncertain.ID(nextID),
				Region: geom.NewRect(lo, geom.Point{lo[0] + 2 + rng.Float64()*40, lo[1] + 2 + rng.Float64()*40, lo[2] + 2 + rng.Float64()*40}),
			}
			nextID++
			live = append(live, o.ID)
			if _, err := ix.Insert(o); err != nil {
				t.Fatalf("op %d: insert: %v", op, err)
			}
		}
		// Spot-check equivalence every few ops.
		if op%5 == 0 {
			for iter := 0; iter < 20; iter++ {
				q := geom.Point{rng.Float64() * 800, rng.Float64() * 800, rng.Float64() * 800}
				got, err := ix.PossibleNN(q)
				if err != nil {
					t.Fatal(err)
				}
				want := bruteforce.PossibleNN(ix.DB(), q)
				if !sameIDs(idsOf(got), want) {
					t.Fatalf("op %d q=%v: got %v want %v", op, q, idsOf(got), want)
				}
			}
		}
	}
}

// TestStep2MatchesBruteForce runs the full PNNQ pipeline (Step 1 via the
// index, Step 2 via pnnq) against the all-pairs brute-force probabilities.
func TestStep2MatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := randomDB(rng, 60, 2, 600, 35, true)
	ix, err := Build(db, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for iter := 0; iter < 30; iter++ {
		q := geom.Point{rng.Float64() * 600, rng.Float64() * 600}
		cands, err := ix.PossibleNN(q)
		if err != nil {
			t.Fatal(err)
		}
		data := make([]pnnq.CandidateData, len(cands))
		for i, c := range cands {
			ins, err := instancesOf(ix, c.ID)
			if err != nil {
				t.Fatal(err)
			}
			data[i] = pnnq.CandidateData{ID: c.ID, Instances: ins}
		}
		got := pnnq.Compute(data, q)
		want := bruteforce.QualificationProbs(db, q)
		gotMap := map[uncertain.ID]float64{}
		var sum float64
		for _, r := range got {
			gotMap[r.ID] = r.Prob
			sum += r.Prob
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Fatalf("q=%v: probabilities sum to %g", q, sum)
		}
		if len(gotMap) != len(want) {
			t.Fatalf("q=%v: %d objects with positive prob, brute force %d", q, len(gotMap), len(want))
		}
		for id, p := range want {
			if math.Abs(gotMap[id]-p) > 1e-9 {
				t.Fatalf("q=%v obj %d: prob %g, brute force %g", q, id, gotMap[id], p)
			}
		}
	}
}

func TestBuildStatsPopulated(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	db := randomDB(rng, 50, 2, 500, 25, false)
	ix, err := Build(db, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	bs := ix.Build
	if bs.Objects != 50 || bs.Total <= 0 || bs.SE.Iterations == 0 || bs.SE.CSetSize == 0 {
		t.Fatalf("build stats: %+v", bs)
	}
	ps := ix.PrimaryStats()
	if ps.Leaves == 0 || ps.Pages == 0 {
		t.Fatalf("primary stats: %+v", ps)
	}
}

func TestQueryIOBounded(t *testing.T) {
	// A PV-index point query should touch only one leaf's pages.
	rng := rand.New(rand.NewSource(9))
	db := randomDB(rng, 200, 2, 1000, 30, false)
	ix, err := Build(db, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	before := ix.Store().Stats()
	q := geom.Point{500, 500}
	if _, err := ix.PossibleNN(q); err != nil {
		t.Fatal(err)
	}
	stats := ix.Store().Stats().Sub(before)
	if stats.Reads == 0 {
		t.Fatal("no I/O recorded")
	}
	total := ix.PrimaryStats().Pages
	if int(stats.Reads) > total/2+1 {
		t.Fatalf("query read %d of %d pages — not leaf-local", stats.Reads, total)
	}
	if stats.Writes != 0 {
		t.Fatal("query wrote pages")
	}
}

// TestPossibleNNIOMatchesStoreReads: the leaf pages PossibleNNIO reports
// are exactly the page reads the store counts over the same queries, chained
// leaves included.
func TestPossibleNNIOMatchesStoreReads(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	db := randomDB(rng, 300, 2, 1000, 30, false)
	cfg := testConfig()
	cfg.Store = pagestore.New(512)
	cfg.MemBudget = 1 << 10 // a few splits, then chained leaves
	ix, err := Build(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	before, leaves := ix.Store().Stats(), 0
	for i := 0; i < 100; i++ {
		_, io, err := ix.PossibleNNIO(geom.Point{rng.Float64() * 1000, rng.Float64() * 1000})
		if err != nil {
			t.Fatal(err)
		}
		if io < 1 {
			t.Fatalf("query %d read %d leaf pages", i, io)
		}
		leaves += io
	}
	if leaves <= 100 {
		t.Fatalf("%d leaf pages over 100 queries: no chained leaf was read", leaves)
	}
	if reads := ix.Store().Stats().Sub(before).Reads; reads != int64(leaves) {
		t.Fatalf("PossibleNNIO reported %d leaf pages, the store counted %d reads", leaves, reads)
	}
}

func TestDeleteUnknownObject(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	db := randomDB(rng, 10, 2, 100, 10, false)
	ix, err := Build(db, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Delete(uncertain.ID(9999)); err == nil {
		t.Fatal("delete of unknown object succeeded")
	}
}

func TestInsertDuplicateID(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	db := randomDB(rng, 10, 2, 100, 10, false)
	ix, err := Build(db, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	o := &uncertain.Object{ID: 5, Region: geom.NewRect(geom.Point{1, 1}, geom.Point{2, 2})}
	if _, err := ix.Insert(o); err == nil {
		t.Fatal("duplicate insert succeeded")
	}
}
