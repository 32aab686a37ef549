package uvindex

import (
	"math/rand"
	"testing"

	"pvoronoi/internal/geom"
	"pvoronoi/internal/uncertain"
)

// Objects hugging the domain boundary: cell tracing clips rays at the
// domain; queries at corners and edges must still be exact.
func TestBoundaryObjectsAndQueries(t *testing.T) {
	db := uncertain.NewDB(geom.UnitCube(2, 1000))
	regions := []geom.Rect{
		geom.NewRect(geom.Point{0, 0}, geom.Point{30, 30}),
		geom.NewRect(geom.Point{970, 970}, geom.Point{1000, 1000}),
		geom.NewRect(geom.Point{0, 480}, geom.Point{25, 520}),
		geom.NewRect(geom.Point{480, 480}, geom.Point{520, 520}),
	}
	for i, r := range regions {
		_ = db.Add(&uncertain.Object{ID: uncertain.ID(i), Region: r})
	}
	ix, err := Build(db, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	queries := []geom.Point{
		{0, 0}, {1000, 1000}, {0, 1000}, {1000, 0},
		{0, 500}, {500, 0}, {500, 500},
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 100; i++ {
		queries = append(queries, geom.Point{rng.Float64() * 1000, rng.Float64() * 1000})
	}
	for _, q := range queries {
		got, _, err := ix.PossibleNN(q)
		if err != nil {
			t.Fatal(err)
		}
		want := PossibleNNBruteForce(db, q)
		if len(got) != len(want) {
			t.Fatalf("q=%v: got %d want %d", q, len(got), len(want))
		}
		for i := range got {
			if got[i].ID != want[i] {
				t.Fatalf("q=%v: mismatch at %d", q, i)
			}
		}
	}
}

// Degenerate point regions: radius-0 circles.
func TestPointCircles(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := uncertain.NewDB(geom.UnitCube(2, 500))
	for i := 0; i < 50; i++ {
		p := geom.Point{rng.Float64() * 500, rng.Float64() * 500}
		_ = db.Add(&uncertain.Object{ID: uncertain.ID(i), Region: geom.PointRect(p)})
	}
	ix, err := Build(db, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for iter := 0; iter < 100; iter++ {
		q := geom.Point{rng.Float64() * 500, rng.Float64() * 500}
		got, _, err := ix.PossibleNN(q)
		if err != nil {
			t.Fatal(err)
		}
		want := PossibleNNBruteForce(db, q)
		if len(got) != len(want) {
			t.Fatalf("point circles q=%v: got %d want %d", q, len(got), len(want))
		}
	}
}

// The traced polygon should have the configured number of vertices and all
// inside the domain.
func TestCellPolygonShape(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	db := randomDB(rng, 30, 400, 20)
	cfg := testConfig()
	cfg.Angles = 64
	ix, err := Build(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range db.Objects() {
		poly := ix.Cell(o.ID)
		if len(poly) != 64 {
			t.Fatalf("object %d: %d vertices, want 64", o.ID, len(poly))
		}
		for _, v := range poly {
			if !ix.domain.Expand(1e-6).Contains(v) {
				t.Fatalf("object %d: vertex %v outside domain", o.ID, v)
			}
		}
	}
}
