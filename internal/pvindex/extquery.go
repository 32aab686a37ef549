package pvindex

import (
	"fmt"
	"sync"

	"pvoronoi/internal/extquery"
	"pvoronoi/internal/geom"
	"pvoronoi/internal/uncertain"
)

// Extension-query retrieval follows the same MVCC discipline as PNNQ's
// Snapshot: candidate retrieval and the instance fetch both read one pinned
// version, while the expensive probability refinement runs on the returned
// snapshot afterwards — extension queries never block writers, and writers
// never block them. Possible-kNN and group-NN retrieve over the version's
// materialized UBR-adjacency graph (best-first expansion seeded by an octree
// point query); reverse-NN still rides the region R*-tree.

// ExtCost attributes the retrieval cost of one extension query: candidate
// count, R-tree node/leaf accesses (LeafIO doubles as the octree seed-query
// leaf reads on the graph paths), adjacency-graph expansion work, and the
// record-cache outcomes of the instance fetch.
type ExtCost struct {
	Candidates  int
	NodeIO      int
	LeafIO      int
	GraphNodes  int
	GraphEdges  int
	CacheHits   int
	CacheMisses int
}

// ExtSnapshot is an atomic extension-query read: the candidate IDs and each
// candidate's stored pdf instances (parallel slice), fetched from one pinned
// version so a concurrent writer can never remove a candidate between
// retrieval and the data access. Instance slices may be shared with the
// record cache — treat them as immutable.
type ExtSnapshot struct {
	IDs       []uncertain.ID
	Instances [][]uncertain.Instance
	Cost      ExtCost
}

// fetchInstancesAt resolves each candidate's stored instances through the
// record cache against a pinned version, accumulating hit/miss counts.
func (ix *Index) fetchInstancesAt(v *version, ids []uncertain.ID, cost *ExtCost) ([][]uncertain.Instance, error) {
	out := make([][]uncertain.Instance, len(ids))
	for i, id := range ids {
		rec, ok, hit, err := ix.getRecordAt(v, uint32(id))
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("pvindex: object %d not in secondary index", id)
		}
		if hit {
			cost.CacheHits++
		} else {
			cost.CacheMisses++
		}
		out[i] = rec.Instances
	}
	return out, nil
}

// seedScratchPool recycles the seed-ID slices across graph queries so the
// octree seed read allocates nothing in steady state.
var seedScratchPool = sync.Pool{New: func() any {
	s := make([]uint32, 0, 64)
	return &s
}}

// graphSeeds runs the octree point query at p (clamped into the domain for
// out-of-domain anchors — clamping preserves exactness, it just picks the
// nearest in-domain start for the expansion) and returns the entry IDs: a
// superset of the objects whose PV-cells contain p, which is exactly what
// the graph expansion needs as sources. The leaf reads are the query's
// attributable seed I/O. Seeds only need IDs, so the read strides over the
// packed leaf bytes (PointQueryIDsInto) instead of decoding full entries —
// the decode cost used to rival the whole expansion. The returned slice
// comes from seedScratchPool; the caller returns it via putSeeds.
func graphSeeds(v *version, p geom.Point) ([]uint32, int, error) {
	if err := checkFinite(p); err != nil {
		return nil, 0, err
	}
	dom := v.db.Domain
	clamped := p
	for j := range p {
		if p[j] < dom.Lo[j] || p[j] > dom.Hi[j] {
			clamped = make(geom.Point, len(p))
			for i := range p {
				clamped[i] = min(max(p[i], dom.Lo[i]), dom.Hi[i])
			}
			break
		}
	}
	scratch := seedScratchPool.Get().(*[]uint32)
	seeds, leafIO, err := v.primary.PointQueryIDsInto(clamped, (*scratch)[:0])
	*scratch = seeds
	if err != nil {
		seedScratchPool.Put(scratch)
		return nil, leafIO, err
	}
	return seeds, leafIO, nil
}

// putSeeds returns a graphSeeds slice to the pool.
func putSeeds(seeds []uint32) {
	seedScratchPool.Put(&seeds)
}

// groupNNAt retrieves the group-NN candidate set against a pinned version:
// best-first expansion over the adjacency graph from the aggregate-minimizer
// anchor.
func groupNNAt(v *version, qs []geom.Point, agg extquery.Agg) ([]uncertain.ID, ExtCost, error) {
	for _, q := range qs {
		if err := checkFinite(q); err != nil {
			return nil, ExtCost{}, err // the anchor is finite whatever the group is
		}
	}
	anchor := extquery.GroupAnchor(qs, agg)
	seeds, leafIO, err := graphSeeds(v, anchor)
	if err != nil {
		return nil, ExtCost{LeafIO: leafIO}, err
	}
	ids, gc := extquery.GroupNNCandidatesGraph(v.db, v.adj, seeds, anchor, qs, agg)
	putSeeds(seeds)
	return ids, ExtCost{Candidates: len(ids), LeafIO: leafIO, GraphNodes: gc.Nodes, GraphEdges: gc.Edges}, nil
}

// knnAt retrieves the possible k-NN candidate set against a pinned version:
// best-first expansion over the adjacency graph from the query point.
func knnAt(v *version, q geom.Point, k int) ([]uncertain.ID, ExtCost, error) {
	seeds, leafIO, err := graphSeeds(v, q)
	if err != nil {
		return nil, ExtCost{LeafIO: leafIO}, err
	}
	ids, gc := extquery.KNNCandidatesGraph(v.db, v.adj, seeds, q, k)
	putSeeds(seeds)
	return ids, ExtCost{Candidates: len(ids), LeafIO: leafIO, GraphNodes: gc.Nodes, GraphEdges: gc.Edges}, nil
}

// GroupNNSnapshot retrieves the group-NN candidate set (adjacency-graph
// expansion with aggregate min/max distance bounds) plus each candidate's
// instances, atomically from one pinned version.
func (ix *Index) GroupNNSnapshot(qs []geom.Point, agg extquery.Agg) (*ExtSnapshot, error) {
	v := ix.pin()
	defer ix.unpin(v)
	ids, cost, err := groupNNAt(v, qs, agg)
	if err != nil {
		return nil, err
	}
	snap := &ExtSnapshot{IDs: ids, Cost: cost}
	snap.Instances, err = ix.fetchInstancesAt(v, ids, &snap.Cost)
	if err != nil {
		return nil, err
	}
	return snap, nil
}

// GroupNNCandidatesOnly is GroupNNSnapshot without the instance fetch, for
// callers that need just the candidate IDs.
func (ix *Index) GroupNNCandidatesOnly(qs []geom.Point, agg extquery.Agg) ([]uncertain.ID, ExtCost, error) {
	v := ix.pin()
	defer ix.unpin(v)
	return groupNNAt(v, qs, agg)
}

// KNNSnapshot retrieves the possible k-NN candidate set (adjacency-graph
// expansion with k-th-maxdist pruning) plus each candidate's instances,
// atomically from one pinned version.
func (ix *Index) KNNSnapshot(q geom.Point, k int) (*ExtSnapshot, error) {
	v := ix.pin()
	defer ix.unpin(v)
	ids, cost, err := knnAt(v, q, k)
	if err != nil {
		return nil, err
	}
	snap := &ExtSnapshot{IDs: ids, Cost: cost}
	snap.Instances, err = ix.fetchInstancesAt(v, ids, &snap.Cost)
	if err != nil {
		return nil, err
	}
	return snap, nil
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
