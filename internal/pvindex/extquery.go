package pvindex

import (
	"pvoronoi/internal/extquery"
	"pvoronoi/internal/geom"
	"pvoronoi/internal/uncertain"
)

// Extension-query retrieval follows the same MVCC discipline as PNNQ's
// Snapshot: candidate retrieval and the instance fetch both read one pinned
// version, while the expensive probability refinement runs on the returned
// snapshot afterwards — extension queries never block writers, and writers
// never block them. All three kinds — possible-kNN, group-NN and reverse-NN —
// retrieve by branch-and-bound over the version's region R*-tree.

// ExtCost attributes the retrieval cost of one extension query: candidate
// count and R-tree node/leaf accesses.
type ExtCost struct {
	Candidates int
	NodeIO     int
	LeafIO     int
	// GraphNodes and GraphEdges are always 0: no query walks the adjacency
	// graph. They stay only because the benchmark harness (benchmark/
	// layers.go) still reads them.
	GraphNodes int
	GraphEdges int
}

// ExtSnapshot is an atomic extension-query read: the candidate IDs and each
// candidate's pdf instances (parallel slice), from one pinned version so a
// concurrent writer can never remove a candidate between retrieval and the
// data access. The instance slices are the version's own objects' — treat
// them as immutable.
type ExtSnapshot struct {
	IDs       []uncertain.ID
	Instances [][]uncertain.Instance
	Cost      ExtCost
}

// fetchInstancesAt takes each candidate's instances from a pinned version.
func fetchInstancesAt(v *version, ids []uncertain.ID) ([][]uncertain.Instance, error) {
	out := make([][]uncertain.Instance, len(ids))
	for i, id := range ids {
		var err error
		if out[i], err = v.instances(id); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// groupNNAt retrieves the group-NN candidate set against a pinned version.
func groupNNAt(v *version, qs []geom.Point, agg extquery.Agg) ([]uncertain.ID, ExtCost, error) {
	for _, q := range qs {
		if err := checkFinite(q); err != nil {
			return nil, ExtCost{}, err
		}
	}
	ids, tc := extquery.GroupNNCandidatesTree(v.regionTree, qs, agg)
	return ids, ExtCost{Candidates: len(ids), NodeIO: tc.Nodes, LeafIO: tc.Leaves}, nil
}

// knnAt retrieves the possible k-NN candidate set against a pinned version.
func knnAt(v *version, q geom.Point, k int) ([]uncertain.ID, ExtCost, error) {
	if err := checkFinite(q); err != nil {
		return nil, ExtCost{}, err
	}
	ids, tc := extquery.KNNCandidatesTree(v.regionTree, q, k)
	return ids, ExtCost{Candidates: len(ids), NodeIO: tc.Nodes, LeafIO: tc.Leaves}, nil
}

// GroupNNSnapshot retrieves the group-NN candidate set (branch-and-bound
// with aggregate min/max distance bounds) plus each candidate's
// instances, atomically from one pinned version.
func (ix *Index) GroupNNSnapshot(qs []geom.Point, agg extquery.Agg) (*ExtSnapshot, error) {
	v := ix.pin()
	defer ix.unpin(v)
	ids, cost, err := groupNNAt(v, qs, agg)
	if err != nil {
		return nil, err
	}
	instances, err := fetchInstancesAt(v, ids)
	if err != nil {
		return nil, err
	}
	return &ExtSnapshot{IDs: ids, Instances: instances, Cost: cost}, nil
}

// GroupNNCandidatesOnly is GroupNNSnapshot without the instance fetch, for
// callers that need just the candidate IDs.
func (ix *Index) GroupNNCandidatesOnly(qs []geom.Point, agg extquery.Agg) ([]uncertain.ID, ExtCost, error) {
	v := ix.pin()
	defer ix.unpin(v)
	return groupNNAt(v, qs, agg)
}

// KNNSnapshot retrieves the possible k-NN candidate set (branch-and-bound
// with k-th-maxdist pruning) plus each candidate's instances,
// atomically from one pinned version.
func (ix *Index) KNNSnapshot(q geom.Point, k int) (*ExtSnapshot, error) {
	v := ix.pin()
	defer ix.unpin(v)
	ids, cost, err := knnAt(v, q, k)
	if err != nil {
		return nil, err
	}
	instances, err := fetchInstancesAt(v, ids)
	if err != nil {
		return nil, err
	}
	return &ExtSnapshot{IDs: ids, Instances: instances, Cost: cost}, nil
}

// KNNCandidatesOnly is KNNSnapshot without the instance fetch, for callers
// that need just the candidate IDs.
func (ix *Index) KNNCandidatesOnly(q geom.Point, k int) ([]uncertain.ID, ExtCost, error) {
	v := ix.pin()
	defer ix.unpin(v)
	return knnAt(v, q, k)
}

// RNNCandidates retrieves the reverse-NN candidate set by filter-refine tree
// descent, at the domination granularity the index was configured with
// (Options.MMax / SE MaxDepth — the same granularity SE uses for its own
// domination counts). Reverse NN is candidate-set only, so there is no
// instance snapshot to fetch.
func (ix *Index) RNNCandidates(q geom.Point) ([]uncertain.ID, ExtCost, error) {
	if err := checkFinite(q); err != nil {
		return nil, ExtCost{}, err
	}
	v := ix.pin()
	defer ix.unpin(v)
	ids, tc := extquery.RNNCandidatesTree(v.regionTree, q, ix.cfg.SE.MaxDepth)
	return ids, ExtCost{Candidates: len(ids), NodeIO: tc.Nodes, LeafIO: tc.Leaves}, nil
}
