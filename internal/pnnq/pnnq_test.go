package pnnq

import (
	"math"
	"math/rand"
	"testing"

	"pvoronoi/internal/bruteforce"
	"pvoronoi/internal/geom"
	"pvoronoi/internal/uncertain"
)

func instancesAt(points ...geom.Point) []uncertain.Instance {
	w := 1.0 / float64(len(points))
	out := make([]uncertain.Instance, len(points))
	for i, p := range points {
		out[i] = uncertain.Instance{Pos: p, Prob: w}
	}
	return out
}

func TestComputeTwoObjects(t *testing.T) {
	q := geom.Point{0, 0}
	// Object 1: one instance at distance 1. Object 2: two instances at
	// distances 0.5 and 2 (each prob 0.5).
	cands := []CandidateData{
		{ID: 1, Instances: instancesAt(geom.Point{1, 0})},
		{ID: 2, Instances: instancesAt(geom.Point{0.5, 0}, geom.Point{2, 0})},
	}
	res := Compute(cands, q)
	if len(res) != 2 {
		t.Fatalf("results: %v", res)
	}
	probs := map[uncertain.ID]float64{}
	for _, r := range res {
		probs[r.ID] = r.Prob
	}
	// P(1 NN) = P(dist2 > 1) = 0.5; P(2 NN) = 0.5·P(dist1>0.5) + 0.5·P(dist1>2) = 0.5.
	if math.Abs(probs[1]-0.5) > 1e-12 || math.Abs(probs[2]-0.5) > 1e-12 {
		t.Fatalf("probs = %v", probs)
	}
	// Results sorted by decreasing probability.
	if res[0].Prob < res[1].Prob {
		t.Fatal("results not sorted")
	}
}

func TestComputeCertainWinner(t *testing.T) {
	q := geom.Point{0, 0}
	cands := []CandidateData{
		{ID: 1, Instances: instancesAt(geom.Point{1, 0})},
		{ID: 2, Instances: instancesAt(geom.Point{5, 0}, geom.Point{6, 0})},
	}
	res := Compute(cands, q)
	if len(res) != 1 || res[0].ID != 1 || res[0].Prob != 1 {
		t.Fatalf("res = %v", res)
	}
}

func TestComputeEmpty(t *testing.T) {
	if res := Compute(nil, geom.Point{0, 0}); res != nil {
		t.Fatalf("empty input: %v", res)
	}
}

func TestComputeMatchesBruteForceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	db := uncertain.NewDB(geom.UnitCube(2, 200))
	for i := 0; i < 15; i++ {
		lo := geom.Point{rng.Float64() * 180, rng.Float64() * 180}
		region := geom.NewRect(lo, geom.Point{lo[0] + 3 + rng.Float64()*15, lo[1] + 3 + rng.Float64()*15})
		_ = db.Add(&uncertain.Object{
			ID:        uncertain.ID(i),
			Region:    region,
			Instances: uncertain.SampleInstances(region, uncertain.PDFUniform, 50, rng),
		})
	}
	for iter := 0; iter < 25; iter++ {
		q := geom.Point{rng.Float64() * 200, rng.Float64() * 200}
		// Feed ALL objects as candidates: must equal brute force exactly.
		var cands []CandidateData
		for _, o := range db.Objects() {
			cands = append(cands, CandidateData{ID: o.ID, Instances: o.Instances})
		}
		got := Compute(cands, q)
		want := bruteforce.QualificationProbs(db, q)
		gotMap := map[uncertain.ID]float64{}
		for _, r := range got {
			gotMap[r.ID] = r.Prob
		}
		if len(gotMap) != len(want) {
			t.Fatalf("got %d positive, want %d", len(gotMap), len(want))
		}
		for id, p := range want {
			if math.Abs(gotMap[id]-p) > 1e-9 {
				t.Fatalf("obj %d: %g vs %g", id, gotMap[id], p)
			}
		}
	}
}
