package pnnq

import "pvoronoi/internal/uncertain"

// ScoredCandidate generalizes Step 2 beyond plain point distance: each
// instance carries a scalar score (e.g. an aggregate distance over a group
// of query points), and the winner is the object whose realized score is the
// minimum. Weights must sum to 1 per candidate.
type ScoredCandidate struct {
	ID      uncertain.ID
	Scores  []float64 // one per instance
	Weights []float64 // instance probabilities; uniform if nil
}

// ComputeScores returns P(candidate's score is the minimum) for each
// candidate, in decreasing probability order. Exact score ties split the win
// evenly among the tied candidates (uniform random tie-breaking), so
// per-query probabilities sum to 1 even on degenerate pdfs.
func ComputeScores(cands []ScoredCandidate) []Result {
	return scored(cands).NN()
}

// scored fills a kernel with the candidates' scores and weights.
func scored(cands []ScoredCandidate) *Sweep {
	s := NewSweep()
	for _, c := range cands {
		ents := s.Add(c.ID, len(c.Scores))
		uniform := 1.0 / float64(len(c.Scores))
		for j, score := range c.Scores {
			ents[j].Score, ents[j].Weight = score, uniform
			if c.Weights != nil {
				ents[j].Weight = c.Weights[j]
			}
		}
	}
	return s
}

// KNNResult is one object's probability of ranking within the k nearest.
type KNNResult = Result

// ComputeKNN returns, for every candidate, the probability that it ranks
// among the k nearest to the (implicit) query — i.e. that fewer than k other
// candidates realize a smaller score, with exact ties broken uniformly at
// random. Independence across objects gives a Poisson-binomial count over
// (closer, tied) rivals, evaluated by the dynamic program in topkMass.
func ComputeKNN(cands []ScoredCandidate, k int) []KNNResult {
	return scored(cands).KNN(k)
}
