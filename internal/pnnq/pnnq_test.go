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

func TestBoundsSandwichExact(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for iter := 0; iter < 50; iter++ {
		var cands []CandidateData
		n := 3 + rng.Intn(5)
		for i := 0; i < n; i++ {
			var pts []geom.Point
			m := 5 + rng.Intn(30)
			for j := 0; j < m; j++ {
				pts = append(pts, geom.Point{rng.Float64() * 100, rng.Float64() * 100})
			}
			cands = append(cands, CandidateData{ID: uncertain.ID(i), Instances: instancesAt(pts...)})
		}
		q := geom.Point{rng.Float64() * 100, rng.Float64() * 100}
		exact := Compute(cands, q)
		exactMap := map[uncertain.ID]float64{}
		for _, r := range exact {
			exactMap[r.ID] = r.Prob
		}
		for _, b := range ComputeBounds(cands, q) {
			p := exactMap[b.ID]
			if p < b.Lo-1e-9 || p > b.Hi+1e-9 {
				t.Fatalf("bounds violated for %d: p=%g not in [%g, %g]", b.ID, p, b.Lo, b.Hi)
			}
		}
	}
}

// ComputeVerified with eps=0 must equal Compute exactly; with eps>0 it may
// deviate per object by at most eps.
func TestComputeVerifiedMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 40; iter++ {
		var cands []CandidateData
		n := 4 + rng.Intn(8)
		for i := 0; i < n; i++ {
			m := 10 + rng.Intn(30)
			ins := make([]uncertain.Instance, m)
			cx, cy := rng.Float64()*200, rng.Float64()*200
			for j := range ins {
				ins[j] = uncertain.Instance{
					Pos:  geom.Point{cx + rng.Float64()*20, cy + rng.Float64()*20},
					Prob: 1 / float64(m),
				}
			}
			cands = append(cands, CandidateData{ID: uncertain.ID(i), Instances: ins})
		}
		q := geom.Point{rng.Float64() * 200, rng.Float64() * 200}
		exact := Compute(cands, q)
		zero := ComputeVerified(cands, q, 0)
		if len(exact) != len(zero) {
			t.Fatalf("eps=0: %d vs %d results", len(zero), len(exact))
		}
		for i := range exact {
			if exact[i].ID != zero[i].ID || math.Abs(exact[i].Prob-zero[i].Prob) > 1e-12 {
				t.Fatalf("eps=0 deviates at %d", i)
			}
		}
		const eps = 0.05
		loose := ComputeVerified(cands, q, eps)
		exactMap := map[uncertain.ID]float64{}
		for _, r := range exact {
			exactMap[r.ID] = r.Prob
		}
		for _, r := range loose {
			if math.Abs(r.Prob-exactMap[r.ID]) > eps+1e-12 {
				t.Fatalf("eps=%g: object %d off by %g", eps, r.ID, math.Abs(r.Prob-exactMap[r.ID]))
			}
		}
	}
}
