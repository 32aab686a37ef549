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
	"pvoronoi/internal/geom"
	"pvoronoi/internal/uncertain"
)

// CandidateData carries the per-object data Step 2 needs: the pdf instances
// of the pinned version's objects.
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
