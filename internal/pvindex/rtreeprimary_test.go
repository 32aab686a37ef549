package pvindex

import (
	"math/rand"
	"testing"

	"pvoronoi/internal/bruteforce"
	"pvoronoi/internal/geom"
)

// The R-tree-primary variant must answer Step 1 identically to the octree
// PV-index and to brute force.
func TestRTreePrimaryEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	db := randomDB(rng, 150, 3, 1000, 40, false)
	ix, err := Build(db, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	rp := NewRTreePrimary(ix, 16)
	for iter := 0; iter < 150; iter++ {
		q := geom.Point{rng.Float64() * 1000, rng.Float64() * 1000, rng.Float64() * 1000}
		a, err := ix.PossibleNN(q)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := rp.PossibleNN(q)
		if !sameIDs(idsOf(a), idsOf(b)) {
			t.Fatalf("q=%v: octree %v rtree-primary %v", q, idsOf(a), idsOf(b))
		}
		if !sameIDs(idsOf(b), bruteforce.PossibleNN(db, q)) {
			t.Fatalf("q=%v: rtree-primary wrong vs brute force", q)
		}
	}
}

func TestRTreePrimaryIOCounted(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	db := randomDB(rng, 200, 2, 1000, 35, false)
	ix, err := Build(db, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	rp := NewRTreePrimary(ix, 8)
	for i := 0; i < 20; i++ {
		if _, io := rp.PossibleNN(geom.Point{rng.Float64() * 1000, rng.Float64() * 1000}); io == 0 {
			t.Fatalf("query %d: no leaf I/O recorded", i)
		}
	}
}
