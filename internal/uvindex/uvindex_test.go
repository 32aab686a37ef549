package uvindex

import (
	"math"
	"math/rand"
	"testing"

	"pvoronoi/internal/geom"
	"pvoronoi/internal/pagestore"
	"pvoronoi/internal/uncertain"
)

func randomDB(rng *rand.Rand, n int, span, maxSide float64) *uncertain.DB {
	db := uncertain.NewDB(geom.UnitCube(2, span))
	for i := 0; i < n; i++ {
		lo := geom.Point{rng.Float64() * (span - maxSide), rng.Float64() * (span - maxSide)}
		hi := geom.Point{lo[0] + 1 + rng.Float64()*(maxSide-1), lo[1] + 1 + rng.Float64()*(maxSide-1)}
		_ = db.Add(&uncertain.Object{ID: uncertain.ID(i), Region: geom.NewRect(lo, hi)})
	}
	return db
}

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Angles = 90
	cfg.Candidates = 30
	cfg.MemBudget = 1 << 18
	return cfg
}

func TestCircleOf(t *testing.T) {
	r := geom.NewRect(geom.Point{0, 0}, geom.Point{2, 2})
	c := CircleOf(r)
	if !c.Center.Equal(geom.Point{1, 1}) {
		t.Fatalf("center = %v", c.Center)
	}
	if math.Abs(c.R-math.Sqrt2) > 1e-12 {
		t.Fatalf("radius = %g", c.R)
	}
	// The circle must contain the rectangle's corners.
	for _, p := range []geom.Point{{0, 0}, {2, 0}, {0, 2}, {2, 2}} {
		if geom.Dist(c.Center, p) > c.R+1e-12 {
			t.Fatalf("corner %v outside circumscribed circle", p)
		}
	}
}

func TestCircleDistances(t *testing.T) {
	c := Circle{Center: geom.Point{0, 0}, R: 2}
	if got := c.MinDist(geom.Point{1, 0}); got != 0 {
		t.Fatalf("MinDist inside = %g", got)
	}
	if got := c.MinDist(geom.Point{5, 0}); got != 3 {
		t.Fatalf("MinDist outside = %g", got)
	}
	if got := c.MaxDist(geom.Point{5, 0}); got != 7 {
		t.Fatalf("MaxDist = %g", got)
	}
	sq := c.BoundingSquare()
	if !sq.Equal(geom.NewRect(geom.Point{-2, -2}, geom.Point{2, 2})) {
		t.Fatalf("BoundingSquare = %v", sq)
	}
}

func TestRejectNon2D(t *testing.T) {
	db := uncertain.NewDB(geom.UnitCube(3, 100))
	if _, err := Build(db, testConfig()); err == nil {
		t.Fatal("3-D database accepted")
	}
}

// TestQueryMatchesCircleBruteForce: the UV-index must answer Step 1 exactly
// under the circle uncertainty model.
func TestQueryMatchesCircleBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	db := randomDB(rng, 120, 1000, 35)
	ix, err := Build(db, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for iter := 0; iter < 200; iter++ {
		q := geom.Point{rng.Float64() * 1000, rng.Float64() * 1000}
		got, _, err := ix.PossibleNN(q)
		if err != nil {
			t.Fatal(err)
		}
		want := PossibleNNBruteForce(db, q)
		if len(got) != len(want) {
			t.Fatalf("q=%v: got %d candidates, want %d", q, len(got), len(want))
		}
		for i := range got {
			if got[i].ID != want[i] {
				t.Fatalf("q=%v: got[%d]=%d want %d", q, i, got[i].ID, want[i])
			}
		}
	}
}

// TestPossibleNNLeafIOMatchesStore: the leaf pages PossibleNN reports are
// exactly the page reads its store counts over the same queries.
func TestPossibleNNLeafIOMatchesStore(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	db := randomDB(rng, 200, 1000, 35)
	cfg := testConfig()
	cfg.Store = pagestore.New(512)
	cfg.MemBudget = 1 << 10 // a few splits, then chained leaves
	ix, err := Build(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	before, leaves := cfg.Store.Stats(), 0
	for iter := 0; iter < 100; iter++ {
		_, io, err := ix.PossibleNN(geom.Point{rng.Float64() * 1000, rng.Float64() * 1000})
		if err != nil {
			t.Fatal(err)
		}
		if io < 1 {
			t.Fatalf("query %d read %d leaf pages", iter, io)
		}
		leaves += io
	}
	if leaves <= 100 {
		t.Fatalf("%d leaf pages over 100 queries: no chained leaf was read", leaves)
	}
	if reads := cfg.Store.Stats().Sub(before).Reads; reads != int64(leaves) {
		t.Fatalf("PossibleNN reported %d leaf pages, the store counted %d reads", leaves, reads)
	}
}

// TestBBoxConservative: every point of the true UV-cell (w.r.t. the full
// database) must lie inside the stored bounding box.
func TestBBoxConservative(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	db := randomDB(rng, 60, 600, 30)
	ix, err := Build(db, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	circles := map[uncertain.ID]Circle{}
	for _, o := range db.Objects() {
		circles[o.ID] = CircleOf(o.Region)
	}
	for _, o := range db.Objects()[:15] {
		bbox, ok := ix.BBox(o.ID)
		if !ok {
			t.Fatalf("no bbox for %d", o.ID)
		}
		me := circles[o.ID]
		for s := 0; s < 500; s++ {
			p := geom.Point{rng.Float64() * 600, rng.Float64() * 600}
			dmin := me.MinDist(p)
			inTrueCell := true
			for _, other := range db.Objects() {
				if other.ID == o.ID {
					continue
				}
				if circles[other.ID].MaxDist(p) < dmin {
					inTrueCell = false
					break
				}
			}
			if inTrueCell && !bbox.Contains(p) {
				t.Fatalf("UV-cell point %v of object %d outside bbox %v", p, o.ID, bbox)
			}
		}
	}
}

func TestCellPolygonInsideCell(t *testing.T) {
	// Each traced polygon vertex should be in (or just past) the cell
	// boundary w.r.t. the candidate neighbors — probe slightly inside.
	rng := rand.New(rand.NewSource(73))
	db := randomDB(rng, 50, 600, 25)
	ix, err := Build(db, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range db.Objects()[:10] {
		poly := ix.Cell(o.ID)
		if len(poly) == 0 {
			t.Fatalf("no polygon for %d", o.ID)
		}
		c := CircleOf(o.Region)
		inside := 0
		for _, v := range poly {
			// Contract the vertex 2% toward the center.
			p := geom.Point{
				c.Center[0] + (v[0]-c.Center[0])*0.98,
				c.Center[1] + (v[1]-c.Center[1])*0.98,
			}
			if !ix.domain.Contains(p) {
				continue
			}
			// Membership w.r.t. the same neighbor set used in tracing is not
			// exposed; use the full DB (a subset of constraints, so a cell
			// point may fail). Count membership and require a quorum.
			dmin := c.MinDist(p)
			ok := true
			for _, other := range db.Objects() {
				if other.ID == o.ID {
					continue
				}
				if CircleOf(other.Region).MaxDist(p) < dmin {
					ok = false
					break
				}
			}
			if ok {
				inside++
			}
		}
		if inside < len(poly)/2 {
			t.Fatalf("object %d: only %d/%d contracted polygon vertices in cell", o.ID, inside, len(poly))
		}
	}
}

func TestBuildStats(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	db := randomDB(rng, 40, 500, 25)
	ix, err := Build(db, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	bs := ix.Build
	if bs.Objects != 40 || bs.Total <= 0 || bs.SweepTime <= 0 {
		t.Fatalf("stats: %+v", bs)
	}
	// The sweep (UV-diagram computation) must dominate construction —
	// that is the effect Fig. 10(g) measures.
	if bs.SweepTime < bs.BBoxTime {
		t.Logf("note: sweep %v < bbox %v (acceptable at tiny scale)", bs.SweepTime, bs.BBoxTime)
	}
}

func TestEmptyDB(t *testing.T) {
	db := uncertain.NewDB(geom.UnitCube(2, 100))
	ix, err := Build(db, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := ix.PossibleNN(geom.Point{50, 50})
	if err != nil || got != nil {
		t.Fatalf("empty: %v %v", got, err)
	}
}

func TestSingleObject(t *testing.T) {
	db := uncertain.NewDB(geom.UnitCube(2, 100))
	_ = db.Add(&uncertain.Object{ID: 3, Region: geom.NewRect(geom.Point{10, 10}, geom.Point{20, 20})})
	ix, err := Build(db, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := ix.PossibleNN(geom.Point{90, 90})
	if err != nil || len(got) != 1 || got[0].ID != 3 {
		t.Fatalf("single object: %v %v", got, err)
	}
}
