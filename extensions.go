package pvoronoi

import (
	"pvoronoi/internal/extquery"
	"pvoronoi/internal/pnnq"
	"pvoronoi/internal/pvindex"
)

// Agg selects the aggregate for group nearest neighbor queries.
type Agg = extquery.Agg

// Aggregates for GroupNN.
const (
	// AggSum minimizes the summed distance to all group points.
	AggSum = extquery.AggSum
	// AggMax minimizes the worst-case distance to the group points.
	AggMax = extquery.AggMax
)

// KNNResult is an object's probability of ranking among the k nearest.
type KNNResult = pnnq.KNNResult

// PossibleKNN, GroupNN and PossibleRNN all retrieve their candidates by
// branch-and-bound over the index's R*-tree of uncertainty regions (the
// paper's R-tree baseline, generalized to aggregate and k-th bounds — never
// an O(n) scan). PossibleKNN and GroupNN snapshot the candidates' stored
// instances from one pinned MVCC version; the expensive probability
// refinement then runs on the snapshot. No lock is taken at any point — long
// extension queries never stall writers, and writers never stall them.

// ExtQueryCost reports the per-query cost of one extension query: candidate
// count and R-tree node and leaf accesses during retrieval. Like QueryCost
// it is attributed exactly to the call that incurred it.
type ExtQueryCost struct {
	Candidates int
	NodeIO     int
	LeafIO     int
}

func extCost(c pvindex.ExtCost) ExtQueryCost {
	return ExtQueryCost{Candidates: c.Candidates, NodeIO: c.NodeIO, LeafIO: c.LeafIO}
}

// GroupNN evaluates a probabilistic group nearest neighbor query: the
// objects that may minimize the aggregate distance to the query points,
// with their probabilities (computed from stored instances). This is the
// group-NN extension the paper's conclusion proposes for the PV-index.
func (ix *Index) GroupNN(group []Point, agg Agg) ([]Result, error) {
	res, _, err := ix.GroupNNWithCost(group, agg)
	return res, err
}

// GroupNNWithCost is GroupNN plus the per-query cost breakdown. Candidate
// retrieval and the instance snapshot read one pinned version atomically;
// the probability computation runs on the snapshot afterwards.
func (ix *Index) GroupNNWithCost(group []Point, agg Agg) ([]Result, ExtQueryCost, error) {
	snap, err := ix.inner.GroupNNSnapshot(group, agg)
	if err != nil {
		return nil, ExtQueryCost{}, err
	}
	res := extquery.GroupNNScores(snap.IDs, snap.Instances, group, agg)
	return res, extCost(snap.Cost), nil
}

// PossibleKNN returns the objects with a non-zero chance of ranking among
// the k nearest neighbors of q, with membership probabilities (probability
// that the object is within the top k). k=1 coincides with Query.
func (ix *Index) PossibleKNN(q Point, k int) ([]KNNResult, error) {
	res, _, err := ix.PossibleKNNWithCost(q, k)
	return res, err
}

// PossibleKNNWithCost is PossibleKNN plus the per-query cost breakdown. Like
// GroupNNWithCost, retrieval and the instance snapshot read one pinned
// version; nothing blocks writers.
func (ix *Index) PossibleKNNWithCost(q Point, k int) ([]KNNResult, ExtQueryCost, error) {
	snap, err := ix.inner.KNNSnapshot(q, k)
	if err != nil {
		return nil, ExtQueryCost{}, err
	}
	res := extquery.KNNScores(snap.IDs, snap.Instances, q, k)
	return res, extCost(snap.Cost), nil
}

// AdjacencyStats reports the distribution of UBR-intersection degrees, the
// stored UBRs each row's UBR meets.
type AdjacencyStats = pvindex.AdjacencyStats

// Adjacency computes the current version's degree distribution on demand:
// one octree window per object, so it is a diagnostic, not a gauge to poll.
func (ix *Index) Adjacency() AdjacencyStats { return ix.inner.Adjacency() }

// PossibleRNN returns the objects with a non-zero chance that q is their
// nearest neighbor (probabilistic reverse NN candidates, region-level
// domination test at the index's configured MMax granularity — the same
// recursion depth SE uses for its domination counts).
func (ix *Index) PossibleRNN(q Point) ([]ID, error) {
	ids, _, err := ix.PossibleRNNWithCost(q)
	return ids, err
}

// PossibleRNNWithCost is PossibleRNN plus the per-query cost breakdown.
func (ix *Index) PossibleRNNWithCost(q Point) ([]ID, ExtQueryCost, error) {
	ids, cost, err := ix.inner.RNNCandidates(q)
	if err != nil {
		return nil, ExtQueryCost{}, err
	}
	return ids, extCost(cost), nil
}
