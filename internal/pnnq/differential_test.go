package pnnq

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"pvoronoi/internal/geom"
	"pvoronoi/internal/uncertain"
)

// The sweep kernel must be the reference Step 2 (reference_test.go) and
// nothing else: same IDs, same order, probabilities within tol, on inputs
// built to hit what a merged sweep with a cutoff can get wrong — exact ties
// within and across candidates, coincident and nested objects, region-only
// rivals, single instances, zero and non-uniform weights, the query on an
// instance, every k around |C|.
const tol = 1e-12

type diffCase struct {
	name  string
	q     geom.Point
	cands []CandidateData
}

// weigh assigns instance probabilities that sum to 1: uniform, random, or
// random with some exactly zero.
func weigh(ins []uncertain.Instance, rng *rand.Rand) {
	if len(ins) == 0 {
		return
	}
	mode := rng.Intn(3)
	var sum float64
	for i := range ins {
		ins[i].Prob = 1
		if mode > 0 {
			ins[i].Prob = 0.05 + rng.Float64()
		}
		if mode == 2 && rng.Intn(3) == 0 && i > 0 {
			ins[i].Prob = 0
		}
		sum += ins[i].Prob
	}
	for i := range ins {
		ins[i].Prob /= sum
	}
}

var instanceCounts = []int{0, 1, 1, 2, 7, 30}

func randomPoint(d int, lo, side float64, rng *rand.Rand) geom.Point {
	p := make(geom.Point, d)
	for j := range p {
		p[j] = lo + rng.Float64()*side
	}
	return p
}

// layouts build n candidates in [0, 100]^d.
var layouts = map[string]func(d, n int, rng *rand.Rand) []CandidateData{
	// Boxes anywhere, continuous positions: no ties, heavy interleaving.
	"scattered": func(d, n int, rng *rand.Rand) []CandidateData {
		cands := make([]CandidateData, n)
		for i := range cands {
			lo, side := rng.Float64()*60, 1+rng.Float64()*40
			ins := make([]uncertain.Instance, instanceCounts[rng.Intn(len(instanceCounts))])
			for j := range ins {
				ins[j].Pos = randomPoint(d, lo, side, rng)
			}
			cands[i] = CandidateData{ID: uncertain.ID(i), Instances: ins}
		}
		return cands
	},
	// Integer positions on a small grid: 2-, 3- and m-way exact distance
	// ties within a candidate and across candidates.
	"grid": func(d, n int, rng *rand.Rand) []CandidateData {
		cands := make([]CandidateData, n)
		for i := range cands {
			ins := make([]uncertain.Instance, instanceCounts[rng.Intn(len(instanceCounts))])
			for j := range ins {
				ins[j].Pos = make(geom.Point, d)
				for a := range ins[j].Pos {
					ins[j].Pos[a] = float64(rng.Intn(7))
				}
			}
			cands[i] = CandidateData{ID: uncertain.ID(i), Instances: ins}
		}
		return cands
	},
	// Every object has the same positions: an n-way tie at every score,
	// told apart by the weights alone.
	"coincident": func(d, n int, rng *rand.Rand) []CandidateData {
		shared := make([]geom.Point, 1+rng.Intn(6))
		for j := range shared {
			shared[j] = randomPoint(d, 20, 30, rng)
		}
		cands := make([]CandidateData, n)
		for i := range cands {
			ins := make([]uncertain.Instance, len(shared))
			for j := range ins {
				ins[j].Pos = shared[j]
			}
			cands[i] = CandidateData{ID: uncertain.ID(i), Instances: ins}
		}
		return cands
	},
	// Object i lies inside object i-1: every maximum beyond the innermost
	// one is past the cutoff, every minimum is not.
	"nested": func(d, n int, rng *rand.Rand) []CandidateData {
		cands := make([]CandidateData, n)
		lo, side := 10.0, 80.0
		for i := range cands {
			ins := make([]uncertain.Instance, 2+rng.Intn(12))
			for j := range ins {
				ins[j].Pos = randomPoint(d, lo, side, rng)
			}
			cands[i] = CandidateData{ID: uncertain.ID(i), Instances: ins}
			lo, side = lo+side/8, side*3/4
		}
		return cands
	},
	// Angiulli & Fassetti: one wide candidate, mostly very near the origin
	// corner but with a far tail, against tight candidates in between — the
	// expected-distance order and the probability order disagree.
	"angiulli": func(d, n int, rng *rand.Rand) []CandidateData {
		cands := make([]CandidateData, n)
		for i := range cands {
			ins := make([]uncertain.Instance, 10)
			for j := range ins {
				switch {
				case i > 0: // tight, at distance ≈ 30·√d
					ins[j].Pos = randomPoint(d, 30, 1, rng)
				case j < 6: // wide: 60 % near …
					ins[j].Pos = randomPoint(d, 0, 2, rng)
				default: // … 40 % far
					ins[j].Pos = randomPoint(d, 97, 2, rng)
				}
			}
			cands[i] = CandidateData{ID: uncertain.ID(i), Instances: ins}
		}
		return cands
	},
}

func diffCorpus() []diffCase {
	rng := rand.New(rand.NewSource(16))
	names := make([]string, 0, len(layouts))
	for name := range layouts {
		names = append(names, name)
	}
	slices.Sort(names)
	var out []diffCase
	for _, d := range []int{1, 2, 3, 5} {
		for _, n := range []int{1, 2, 5, 20} {
			for _, name := range names {
				for rep := 0; rep < 4; rep++ {
					cands := layouts[name](d, n, rng)
					for i := range cands {
						if name != "angiulli" {
							weigh(cands[i].Instances, rng)
						} else {
							for j := range cands[i].Instances {
								cands[i].Instances[j].Prob = 0.1
							}
						}
					}
					q := make(geom.Point, d) // the origin: on the grid, outside every box
					var with []uncertain.Instance
					for _, c := range cands {
						with = append(with, c.Instances...)
					}
					switch {
					case name == "angiulli":
					case rep == 1 && len(with) > 0: // on an instance
						q = with[rng.Intn(len(with))].Pos
					case rep == 2: // inside the regions
						q = randomPoint(d, 30, 20, rng)
						if name == "grid" {
							for a := range q {
								q[a] = float64(rng.Intn(7))
							}
						}
					case rep == 3:
						q = randomPoint(d, 0, 100, rng)
					}
					out = append(out, diffCase{fmt.Sprintf("%s/d%d/n%d/%d", name, d, n, rep), q, cands})
				}
			}
		}
	}
	return out
}

func probsOf(rs []Result) map[uncertain.ID]float64 {
	m := make(map[uncertain.ID]float64, len(rs))
	for _, r := range rs {
		m[r.ID] = r.Prob
	}
	return m
}

// sameResults fails unless got is the reference's answer: the same ID for
// every probability above tol, probabilities within tol, got in rank order,
// and the reference's order wherever its neighbours are more than tol apart.
// wantSum < 0 skips the mass check.
func sameResults(t *testing.T, what string, got, want []Result, wantSum float64) {
	t.Helper()
	gm, wm := probsOf(got), probsOf(want)
	if len(gm) != len(got) {
		t.Fatalf("%s: duplicate IDs in %v", what, got)
	}
	for _, r := range append(slices.Clone(want), got...) {
		if math.Abs(gm[r.ID]-wm[r.ID]) > tol { // an absent ID reads as probability 0
			t.Fatalf("%s: object %d: got %g, reference %g\n got %v\nwant %v", what, r.ID, gm[r.ID], wm[r.ID], got, want)
		}
	}
	var sum float64
	for i, r := range got {
		sum += r.Prob
		if r.Prob <= 0 || i > 0 && (got[i-1].Prob < r.Prob || got[i-1].Prob == r.Prob && got[i-1].ID >= r.ID) {
			t.Fatalf("%s: result %d out of rank order or not positive: %v", what, i, got)
		}
	}
	if wantSum >= 0 && math.Abs(sum-wantSum) > 1e-9 {
		t.Fatalf("%s: probabilities sum to %g, want %g: %v", what, sum, wantSum, got)
	}
	for i, w := range want {
		apart := (i == 0 || want[i-1].Prob-w.Prob > tol) && (i == len(want)-1 || w.Prob-want[i+1].Prob > tol)
		if apart && w.Prob > tol && (i >= len(got) || got[i].ID != w.ID) {
			t.Fatalf("%s: rank %d is not object %d\n got %v\nwant %v", what, i, w.ID, got, want)
		}
	}
}

// toScored turns distance candidates into scored ones; dropUniform leaves
// Weights nil where they are uniform, for the "uniform if nil" path.
func toScored(cands []CandidateData, q geom.Point, dropUniform bool) []ScoredCandidate {
	out := make([]ScoredCandidate, len(cands))
	for i, c := range cands {
		sc := ScoredCandidate{ID: c.ID, Scores: make([]float64, len(c.Instances)), Weights: make([]float64, len(c.Instances))}
		uniform := dropUniform
		for j, in := range c.Instances {
			sc.Scores[j], sc.Weights[j] = geom.Dist(in.Pos, q), in.Prob
			uniform = uniform && in.Prob == 1/float64(len(c.Instances))
		}
		if uniform {
			sc.Weights = nil
		}
		out[i] = sc
	}
	return out
}

// checkAgainstReference runs all three entry points on one input. normalized
// says every candidate with instances has total weight 1, which fixes the
// total mass of the answer.
func checkAgainstReference(t *testing.T, name string, q geom.Point, cands []CandidateData, ks []int, normalized bool) {
	t.Helper()
	n, withInstances := len(cands), 0
	for _, c := range cands {
		if len(c.Instances) > 0 {
			withInstances++
		}
	}
	nnMass := -1.0
	if normalized {
		nnMass = float64(min(1, withInstances))
	}
	knnMass := func(k int) float64 {
		if !normalized {
			return -1
		}
		return float64(min(max(k, 0), withInstances))
	}

	got := Compute(cands, q)
	sameResults(t, name+": Compute", got, refCompute(cands, q), nnMass)
	if fresh := distances(new(Sweep), cands, q).NN(); !slices.Equal(fresh, got) {
		t.Fatalf("%s: a fresh kernel answers %v, a pooled one %v", name, fresh, got)
	}
	scored := toScored(cands, q, true)
	sameResults(t, name+": ComputeScores", ComputeScores(scored), refComputeScores(scored), nnMass)
	for _, k := range ks {
		want := refComputeKNN(scored, k)
		if k < n {
			sameResults(t, fmt.Sprintf("%s: ComputeKNN k=%d", name, k), ComputeKNN(scored, k), want, knnMass(k))
		} else if got := ComputeKNN(scored, k); !slices.Equal(got, want) { // everyone, region-only included, in input order
			t.Fatalf("%s: ComputeKNN k=%d ≥ n: got %v, reference %v", name, k, got, want)
		}
	}
}

func TestSweepMatchesReference(t *testing.T) {
	for _, c := range diffCorpus() {
		n := len(c.cands)
		checkAgainstReference(t, c.name, c.q, c.cands, []int{0, 1, 2, n - 1, n, n + 1}, true)
	}
	// The served shapes of bench_test.go: real Step-1 candidate sets, 100 and
	// 200 instances per candidate, bands hundreds of entries wide.
	benchSets()
	for name, sets := range map[string][]benchSet{"benchD2": benchD2, "benchD3": benchD3} {
		for i, set := range sets {
			checkAgainstReference(t, fmt.Sprintf("%s/%d", name, i), set.q, set.cands, nil, true)
		}
	}
	for i, set := range benchK2 {
		checkAgainstReference(t, fmt.Sprintf("benchK2/%d", i), set.q, set.cands, []int{1, 2, benchKNN, len(set.cands) - 1}, true)
	}
}

// The Angiulli & Fassetti family is what it claims: the wide candidate has
// the larger expected distance and still is the most probable NN.
func TestAngiulliFamilyOrdersDisagree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, d := range []int{1, 2, 3, 5} {
		cands := layouts["angiulli"](d, 2, rng)
		q := make(geom.Point, d)
		var expected [2]float64
		for i, c := range cands {
			for j := range c.Instances {
				c.Instances[j].Prob = 0.1
				expected[i] += 0.1 * geom.Dist(c.Instances[j].Pos, q)
			}
		}
		res := Compute(cands, q)
		if expected[0] <= expected[1] || len(res) != 2 || res[0].ID != 0 || math.Abs(res[0].Prob-0.6) > tol {
			t.Fatalf("d=%d: expected distances %v, probabilities %v", d, expected, res)
		}
	}
}

// A candidate without instances is an unconstrained rival: it takes no
// probability and leaves the other candidate's win whole.
func TestComputeBesideRegionOnlyCandidate(t *testing.T) {
	q := geom.Point{0, 0}
	cands := []CandidateData{
		{ID: 1, Instances: instancesAt(geom.Point{1, 0}, geom.Point{2, 0})},
		{ID: 2},
	}
	want := []Result{{ID: 1, Prob: 1}}
	if got := Compute(cands, q); !slices.Equal(got, want) {
		t.Fatalf("Compute = %v, want %v", got, want)
	}
}

// fuzzCase decodes fuzz input into a Step-2 problem on a coarse integer grid
// (coordinates 0..7, so exact ties are the rule), with weights 0..3 per
// instance normalized per candidate — all zero stays all zero.
func fuzzCase(dByte, kByte byte, data []byte) (q geom.Point, cands []CandidateData, k int, normalized bool) {
	d := 1 + int(dByte)%5
	next := func(mod byte) float64 {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return float64(b % mod)
	}
	point := func() geom.Point {
		p := make(geom.Point, d)
		for j := range p {
			p[j] = next(8)
		}
		return p
	}
	q, normalized = point(), true
	for len(data) > 0 && len(cands) < 16 {
		ins := make([]uncertain.Instance, int(next(6)))
		var sum float64
		for j := range ins {
			ins[j] = uncertain.Instance{Pos: point(), Prob: next(4)}
			sum += ins[j].Prob
		}
		for j := range ins {
			if sum > 0 {
				ins[j].Prob /= sum
			}
		}
		normalized = normalized && (sum > 0 || len(ins) == 0)
		cands = append(cands, CandidateData{ID: uncertain.ID(len(cands)), Instances: ins})
	}
	return q, cands, int(kByte) % (len(cands) + 2), normalized
}

func FuzzSweepMatchesReference(f *testing.F) {
	f.Add(byte(0), byte(1), []byte{0, 1, 3, 1, 1, 3, 1})                               // d=1: two candidates, one instance each, tied at 3
	f.Add(byte(1), byte(1), []byte{0, 0, 1, 3, 4, 1, 1, 5, 0, 1, 1, 0, 5, 2})          // d=2: three-way tie at distance 5
	f.Add(byte(1), byte(2), []byte{4, 4, 2, 1, 1, 1, 7, 7, 1, 0, 2, 2, 2, 1, 6, 6, 0}) // region-only rival, zero weight
	f.Add(byte(2), byte(0), []byte{1, 1, 1, 1, 1, 1, 1, 3, 1, 2, 2, 2, 0, 1, 3, 3, 3, 0})
	f.Add(byte(4), byte(3), []byte{0, 0, 0, 0, 0, 3, 1, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 2, 0, 0, 1, 0, 0, 3, 2, 1, 1, 1, 1, 1, 1, 1})
	f.Add(byte(0), byte(2), []byte{0, 2, 1, 1, 7, 1, 2, 2, 1, 6, 1, 2, 3, 1, 5, 1, 2, 1, 1, 7, 1}) // k=2, a wide band: F = 2, cutoff = 6
	f.Add(byte(0), byte(1), []byte{0, 2, 1, 1, 2, 1, 2, 5, 1, 6, 1})                               // k=1, an empty band: F = 5 above the cutoff 2
	f.Add(byte(0), byte(3), []byte{0, 1, 1, 1, 1, 2, 1, 0, 0})                                     // k=3, an empty band: two region-only rivals, F = +Inf
	f.Add(byte(0), byte(2), []byte{0, 2, 1, 1, 2, 1, 2, 5, 1, 7, 1, 2, 6, 1, 7, 1})                // k=2, the first candidate finishes below F = 6
	f.Fuzz(func(t *testing.T, dByte, kByte byte, data []byte) {
		q, cands, k, normalized := fuzzCase(dByte, kByte, data)
		// Twice: the second pass runs on the scratch the first one dirtied.
		for pass := 0; pass < 2; pass++ {
			checkAgainstReference(t, fmt.Sprintf("pass %d q=%v cands=%v", pass, q, cands), q, cands, []int{k}, normalized)
		}
	})
}

// Past a candidate's last entry nothing of it is farther — decided by count:
// its total (summed in input order) and its consumed mass (summed in score
// order) need not cancel in floating point.
func TestSplitPastLastEntryIsZeroByCount(t *testing.T) {
	a, b, c := 0.1, 0.2, 0.3 // variables: constant expressions would be folded exactly
	r := running{total: (a + b) + c, less: (c + b) + a}
	if r.total == r.less {
		t.Fatal("the two summation orders agree; pick other weights")
	}
	if _, _, far := r.split(); far != 0 {
		t.Fatalf("far = %g past the last entry", far)
	}
}
