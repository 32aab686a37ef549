package pvindex

// edge_test.go: degenerate inputs and failure injection — point-shaped
// regions (certain objects), boundary-hugging objects, 1-D databases,
// identical regions, and page-store exhaustion.

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"pvoronoi/internal/bruteforce"
	"pvoronoi/internal/geom"
	"pvoronoi/internal/pagestore"
	"pvoronoi/internal/uncertain"
)

// TestCertainObjects: when every uncertainty region is a point, PNNQ Step 1
// degenerates to the classic Voronoi problem — exactly one answer almost
// everywhere.
func TestCertainObjects(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	db := uncertain.NewDB(geom.UnitCube(2, 1000))
	for i := 0; i < 100; i++ {
		p := geom.Point{rng.Float64() * 1000, rng.Float64() * 1000}
		_ = db.Add(&uncertain.Object{ID: uncertain.ID(i), Region: geom.PointRect(p)})
	}
	ix, err := Build(db, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	single := 0
	for iter := 0; iter < 100; iter++ {
		q := geom.Point{rng.Float64() * 1000, rng.Float64() * 1000}
		got, err := ix.PossibleNN(q)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteforce.PossibleNN(db, q)
		if !sameIDs(idsOf(got), want) {
			t.Fatalf("q=%v: got %v want %v", q, idsOf(got), want)
		}
		if len(got) == 1 {
			single++
		}
	}
	if single < 95 {
		t.Fatalf("only %d/100 point-object queries had a unique NN", single)
	}
}

// TestBoundaryObjects: regions flush against the domain boundary.
func TestBoundaryObjects(t *testing.T) {
	db := uncertain.NewDB(geom.UnitCube(2, 100))
	regions := []geom.Rect{
		geom.NewRect(geom.Point{0, 0}, geom.Point{10, 10}),     // corner
		geom.NewRect(geom.Point{90, 90}, geom.Point{100, 100}), // opposite corner
		geom.NewRect(geom.Point{0, 45}, geom.Point{5, 55}),     // edge
		geom.NewRect(geom.Point{45, 45}, geom.Point{55, 55}),   // center
	}
	for i, r := range regions {
		_ = db.Add(&uncertain.Object{ID: uncertain.ID(i), Region: r})
	}
	ix, err := Build(db, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for iter := 0; iter < 200; iter++ {
		q := geom.Point{rng.Float64() * 100, rng.Float64() * 100}
		got, err := ix.PossibleNN(q)
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDs(idsOf(got), bruteforce.PossibleNN(db, q)) {
			t.Fatalf("boundary mismatch at %v", q)
		}
	}
	// Query exactly on the corners.
	for _, q := range []geom.Point{{0, 0}, {100, 100}, {0, 100}, {100, 0}} {
		got, err := ix.PossibleNN(q)
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDs(idsOf(got), bruteforce.PossibleNN(db, q)) {
			t.Fatalf("corner mismatch at %v", q)
		}
	}
}

// TestOneDimensional: the machinery must work at d=1 (intervals on a line).
func TestOneDimensional(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	db := uncertain.NewDB(geom.UnitCube(1, 1000))
	for i := 0; i < 60; i++ {
		lo := rng.Float64() * 980
		_ = db.Add(&uncertain.Object{
			ID:     uncertain.ID(i),
			Region: geom.NewRect(geom.Point{lo}, geom.Point{lo + 1 + rng.Float64()*19}),
		})
	}
	ix, err := Build(db, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for iter := 0; iter < 200; iter++ {
		q := geom.Point{rng.Float64() * 1000}
		got, err := ix.PossibleNN(q)
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDs(idsOf(got), bruteforce.PossibleNN(db, q)) {
			t.Fatalf("d=1 mismatch at %v", q)
		}
	}
}

// TestIdenticalRegions: many objects sharing the same region are all
// possible NNs wherever one of them is.
func TestIdenticalRegions(t *testing.T) {
	db := uncertain.NewDB(geom.UnitCube(2, 100))
	shared := geom.NewRect(geom.Point{40, 40}, geom.Point{60, 60})
	for i := 0; i < 8; i++ {
		_ = db.Add(&uncertain.Object{ID: uncertain.ID(i), Region: shared})
	}
	_ = db.Add(&uncertain.Object{ID: 100, Region: geom.NewRect(geom.Point{0, 0}, geom.Point{5, 5})})
	ix, err := Build(db, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	got, err := ix.PossibleNN(geom.Point{50, 50})
	if err != nil {
		t.Fatal(err)
	}
	if !sameIDs(idsOf(got), bruteforce.PossibleNN(db, geom.Point{50, 50})) {
		t.Fatalf("identical-region mismatch: %v", idsOf(got))
	}
	if len(got) < 8 {
		t.Fatalf("only %d of 8 identical objects returned", len(got))
	}
}

// TestStoreExhaustionFailsGracefully: a page store that runs out must
// surface an error from Build, not panic or corrupt. The store holds only
// octree leaves, four pages for this database, so it allows two.
func TestStoreExhaustionFailsGracefully(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	db := randomDB(rng, 200, 2, 1000, 30, true)
	cfg := testConfig()
	cfg.Store = pagestore.NewLimited(pagestore.DefaultPageSize, 2)
	_, err := Build(db, cfg)
	if err == nil {
		t.Fatal("Build succeeded on an exhausted store")
	}
}

// TestManyInstancesRecord: paper-sized pdfs (500 samples, 3-D) span multiple
// secondary-index pages and must round-trip intact.
func TestManyInstancesRecord(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := uncertain.NewDB(geom.UnitCube(3, 1000))
	for i := 0; i < 10; i++ {
		region := geom.NewRect(
			geom.Point{float64(i) * 90, 10, 10},
			geom.Point{float64(i)*90 + 50, 60, 60},
		)
		_ = db.Add(&uncertain.Object{
			ID:        uncertain.ID(i),
			Region:    region,
			Instances: uncertain.SampleInstances(region, uncertain.PDFUniform, 500, rng),
		})
	}
	ix, err := Build(db, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range db.Objects() {
		ins, err := instancesOf(ix, o.ID)
		if err != nil {
			t.Fatal(err)
		}
		if len(ins) != 500 {
			t.Fatalf("object %d: %d instances back", o.ID, len(ins))
		}
		for j := range ins {
			if !ins[j].Pos.Equal(o.Instances[j].Pos) || ins[j].Prob != o.Instances[j].Prob {
				t.Fatalf("object %d instance %d corrupted", o.ID, j)
			}
		}
	}
}

// TestDeleteEverything empties the database through incremental deletes.
func TestDeleteEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	db := randomDB(rng, 40, 2, 500, 25, false)
	ix, err := Build(db, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := ix.Delete(uncertain.ID(i)); err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
	}
	got, err := ix.PossibleNN(geom.Point{250, 250})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty DB returned %v", got)
	}
	// And refill it again.
	for i := 0; i < 20; i++ {
		lo := geom.Point{rng.Float64() * 450, rng.Float64() * 450}
		o := &uncertain.Object{
			ID:     uncertain.ID(100 + i),
			Region: geom.NewRect(lo, geom.Point{lo[0] + 10, lo[1] + 10}),
		}
		if _, err := ix.Insert(o); err != nil {
			t.Fatalf("re-insert %d: %v", i, err)
		}
	}
	for iter := 0; iter < 50; iter++ {
		q := geom.Point{rng.Float64() * 500, rng.Float64() * 500}
		got, err := ix.PossibleNN(q)
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDs(idsOf(got), bruteforce.PossibleNN(ix.DB(), q)) {
			t.Fatalf("refilled DB mismatch at %v", q)
		}
	}
}

// TestDimensionBound: Build and LoadFrom refuse a database whose dimension is
// outside [1, geom.MaxDim], and accept both ends of that range.
func TestDimensionBound(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, d := range []int{0, 1, geom.MaxDim, geom.MaxDim + 1} {
		db := randomDB(rng, 6, max(d, 1), 1000, 30, true)
		if d == 0 || d > geom.MaxDim {
			db = uncertain.NewDB(geom.UnitCube(d, 1000))
		}
		ix, err := Build(db, testConfig())
		if d == 0 || d > geom.MaxDim {
			if err == nil || !strings.Contains(err.Error(), "dimension") {
				t.Errorf("d = %d: Build returned %v", d, err)
			}
			if _, err := LoadFrom(bytes.NewReader(nil), db); err == nil || !strings.Contains(err.Error(), "dimension") {
				t.Errorf("d = %d: LoadFrom returned %v", d, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("d = %d: %v", d, err)
		}
		var buf bytes.Buffer
		if err := ix.SaveTo(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadFrom(&buf, db); err != nil {
			t.Fatalf("d = %d: LoadFrom: %v", d, err)
		}
	}
}
