// Package pnnq implements PNNQ Step 2: computing the qualification
// probability of each Step-1 candidate — the probability that the object is
// the nearest neighbor of the query point — under the discrete uncertainty
// model (Cheng, Kalashnikov, Prabhakar, TKDE 2004).
//
// Restricting the computation to Step-1 candidates is exact: any object that
// is not a possible NN has distmin > min-max distance, so for every instance
// of a candidate that could win (distance <= min-max), the non-candidate is
// farther with probability 1 and contributes factor 1 to the product.
package pnnq

import (
	"math"

	"pvoronoi/internal/geom"
	"pvoronoi/internal/uncertain"
)

// CandidateData carries the per-object data Step 2 needs: the pdf instances
// fetched from the secondary index.
type CandidateData struct {
	ID        uncertain.ID
	Instances []uncertain.Instance
}

// Result is one object's qualification probability.
type Result struct {
	ID   uncertain.ID
	Prob float64
}

// Compute returns the qualification probability of every candidate with
// respect to query point q, in decreasing probability order. Candidates with
// zero probability (possible under the discrete pdf even when regions
// overlap the cutoff) are omitted. Instances at exactly equal distance split
// the win evenly (uniform random tie-breaking), so probabilities sum to 1
// even on degenerate pdfs.
//
//	P(o is NN) = Σ_{s ∈ instances(o)} p(s) · P(every o'≠o realizes a farther
//	             distance, ties sharing the win uniformly)
func Compute(cands []CandidateData, q geom.Point) []Result {
	return distances(NewSweep(), cands, q).NN()
}

// distances fills s with every candidate's instance distances to q.
func distances(s *Sweep, cands []CandidateData, q geom.Point) *Sweep {
	for _, c := range cands {
		ents := s.Add(c.ID, len(c.Instances))
		for j, in := range c.Instances {
			ents[j].Score, ents[j].Weight = geom.Dist(in.Pos, q), in.Prob
		}
	}
	return s
}

// Bounds computes lower and upper bounds on each candidate's qualification
// probability without the full O(n²·m) product, in the spirit of the
// probabilistic verifiers of Cheng et al. (ICDE 2008): for candidate o, any
// instance closer than every other candidate's minimum instance distance
// wins outright (lower bound), and any instance farther than some other
// candidate's maximum instance distance never wins (upper bound).
type Bound struct {
	ID     uncertain.ID
	Lo, Hi float64
}

// ComputeBounds returns per-candidate probability bounds. The exact
// probability from Compute always lies within [Lo, Hi].
func ComputeBounds(cands []CandidateData, q geom.Point) []Bound {
	s := distances(NewSweep(), cands, q)
	defer s.release()
	return s.bounds()
}

func (s *Sweep) bounds() []Bound {
	if len(s.run) == 0 {
		return nil
	}
	s.measure()
	out := make([]Bound, len(s.run))
	for i := range s.run {
		// othersMin: the smallest minimum distance among other candidates;
		// othersMax: the smallest maximum distance among other candidates.
		othersMin, othersMax := math.Inf(1), math.Inf(1)
		for k := range s.run {
			if k != i {
				othersMin = min(othersMin, s.run[k].min)
				othersMax = min(othersMax, s.run[k].max)
			}
		}
		var lo, hi float64
		for _, e := range s.entries(i) {
			if e.Score < othersMin {
				lo += e.Weight // beats every possible position of everyone else
			}
			if e.Score <= othersMax {
				hi += e.Weight // could beat the closest rival's worst case
			}
		}
		out[i] = Bound{ID: s.run[i].id, Lo: lo, Hi: min(hi, 1)}
	}
	return out
}

// ComputeVerified evaluates Step 2 the way the probabilistic verifiers of
// Cheng et al. (ICDE 2008) propose: cheap per-candidate probability bounds
// first, the expensive exact product only for candidates whose bounds leave
// the answer open. A candidate whose upper bound is zero is discarded; one
// whose bounds pin its probability within eps is reported at the bound
// midpoint. The result therefore differs from Compute by at most eps per
// object (exactly equal when eps = 0).
func ComputeVerified(cands []CandidateData, q geom.Point, eps float64) []Result {
	s := distances(NewSweep(), cands, q)
	var settled []Result
	open := map[uncertain.ID]bool{}
	for _, b := range s.bounds() {
		switch {
		case b.Hi == 0:
			// Verified non-answer: no instance can win.
		case b.Hi-b.Lo <= eps:
			settled = append(settled, Result{ID: b.ID, Prob: (b.Lo + b.Hi) / 2})
		default:
			open[b.ID] = true
		}
	}
	// The exact product needs every rival's distances, not just the open
	// ones' — evaluate all candidates but report only the open IDs.
	if len(open) == 0 {
		s.release()
	} else {
		for _, r := range s.NN() {
			if open[r.ID] {
				settled = append(settled, r)
			}
		}
	}
	rank(settled)
	return settled
}
