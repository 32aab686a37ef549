package pvindex

import (
	"math/rand"
	"reflect"
	"testing"

	"pvoronoi/internal/bruteforce"
	"pvoronoi/internal/geom"
)

// TestParallelBuildEquivalent: a parallel build must answer every query
// identically to a serial build (and to brute force).
func TestParallelBuildEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	db := randomDB(rng, 200, 3, 1000, 40, false)

	serial, err := Build(db, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := BuildParallel(db, testConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if parallel.Build.Objects != serial.Build.Objects {
		t.Fatalf("object counts differ: %d vs %d", parallel.Build.Objects, serial.Build.Objects)
	}
	for iter := 0; iter < 150; iter++ {
		q := geom.Point{rng.Float64() * 1000, rng.Float64() * 1000, rng.Float64() * 1000}
		a, err := serial.PossibleNN(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := parallel.PossibleNN(q)
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDs(idsOf(a), idsOf(b)) {
			t.Fatalf("q=%v: serial %v parallel %v", q, idsOf(a), idsOf(b))
		}
		if !sameIDs(idsOf(b), bruteforce.PossibleNN(db, q)) {
			t.Fatalf("q=%v: parallel result diverges from brute force", q)
		}
	}
	// UBRs must be identical (SE is deterministic given the same inputs).
	for _, o := range db.Objects() {
		ua, _ := serial.UBR(o.ID)
		ub, _ := parallel.UBR(o.ID)
		if !ua.Equal(ub) {
			t.Fatalf("object %d: serial UBR %v != parallel UBR %v", o.ID, ua, ub)
		}
	}
	// ... and so must every adjacency row.
	if !reflect.DeepEqual(serial.current.Load().adj.Image(), parallel.current.Load().adj.Image()) {
		t.Fatal("serial and parallel builds produced different adjacency graphs")
	}
}

func TestParallelBuildDefaultWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	db := randomDB(rng, 60, 2, 500, 25, false)
	ix, err := BuildParallel(db, testConfig(), 0) // 0 → GOMAXPROCS
	if err != nil {
		t.Fatal(err)
	}
	if ix.Build.Objects != 60 {
		t.Fatalf("built %d objects", ix.Build.Objects)
	}
}
