package extquery

import (
	"slices"
	"sync"

	"pvoronoi/internal/domination"
	"pvoronoi/internal/geom"
	"pvoronoi/internal/rtree"
	"pvoronoi/internal/uncertain"
)

// This file holds the index-assisted retrieval paths: the same candidate
// definitions as the linear scans in extquery.go, evaluated by best-first
// branch-and-bound over the R*-tree of uncertainty regions — the one
// retrieval structure every extension query runs on, the tree each PV-index
// version already maintains for SE. Each function returns exactly the ID set
// of its scan counterpart — the scans stay as test oracles — plus the
// per-call node/leaf access cost.

// rnnPoolSize bounds the dominator pool used for subtree-level RNN pruning:
// the regions nearest the query, which wholesale-dominate far subtrees.
const rnnPoolSize = 16

// treeScratch recycles a retrieval's per-call slices — the items KthBound
// keeps and kNN's sorted upper bounds — so a warm call allocates little
// beyond its result.
type treeScratch struct {
	items []rtree.Bounded
	upper []float64
}

var treeScratchPool = sync.Pool{New: func() any { return new(treeScratch) }}

// release returns sc to the pool. The kept items are cleared first: their
// rectangles alias the regions of the version that was browsed.
func (sc *treeScratch) release() {
	clear(sc.items)
	sc.items = sc.items[:0]
	treeScratchPool.Put(sc)
}

// ids returns the ascending IDs of the kept items that pass, allocating
// only the result (nil when none passes). It compacts sc.items in place.
func (sc *treeScratch) ids(pass func(*rtree.Bounded) bool) []uncertain.ID {
	n := 0
	for i := range sc.items {
		if pass(&sc.items[i]) {
			sc.items[n] = sc.items[i]
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]uncertain.ID, n)
	for i := range out {
		out[i] = uncertain.ID(sc.items[i].ID)
	}
	slices.Sort(out)
	return out
}

// GroupNNCandidatesTree returns the group-NN candidate set of GroupNNCandidates
// by branch-and-bound: nodes are visited best-first by the aggregate
// lower bound and pruned against the smallest aggregate upper bound seen,
// so only the neighborhood of the query group touches pages.
func GroupNNCandidatesTree(t *rtree.Tree, qs []geom.Point, agg Agg) ([]uncertain.ID, rtree.Cost) {
	if t == nil || t.Len() == 0 || len(qs) == 0 {
		return nil, rtree.Cost{}
	}
	sc := treeScratchPool.Get().(*treeScratch)
	defer sc.release()
	var best float64
	var cost rtree.Cost
	sc.items, best, cost = t.KthBound(
		func(r geom.Rect) float64 { return aggMin(r, qs, agg) },
		func(r geom.Rect) float64 { return aggMax(r, qs, agg) }, 1, sc.items)
	return sc.ids(func(b *rtree.Bounded) bool { return b.Lower <= best }), cost
}

// KNNCandidatesTree returns the k-NN candidate set of KNNCandidates by
// incremental best-first traversal with k-th-maxdist pruning: the running
// k-th smallest max distance bounds the frontier, and the dominator-count
// refinement runs over the kept entries only (every potential dominator
// has maxdist below the bound, so it is necessarily kept).
func KNNCandidatesTree(t *rtree.Tree, q geom.Point, k int) ([]uncertain.ID, rtree.Cost) {
	if t == nil || t.Len() == 0 || k <= 0 {
		return nil, rtree.Cost{}
	}
	sc := treeScratchPool.Get().(*treeScratch)
	defer sc.release()
	var kth float64
	var cost rtree.Cost
	sc.items, kth, cost = t.KthBound(
		func(r geom.Rect) float64 { return r.MinDist(q) },
		func(r geom.Rect) float64 { return r.MaxDist(q) }, k, sc.items)

	// Sorted max distances of the kept entries support the exact dominator
	// count by binary search: dominators of o are the entries with maxdist
	// strictly below distmin(o, q), and all of them are kept.
	sorted := sc.upper[:0]
	for i := range sc.items {
		sorted = append(sorted, sc.items[i].Upper)
	}
	slices.Sort(sorted)
	sc.upper = sorted
	return sc.ids(func(b *rtree.Bounded) bool {
		if b.Lower > kth {
			return false // at least k objects are surely closer
		}
		// An entry never dominates itself: its own maxdist >= its mindist.
		dominators, _ := slices.BinarySearch(sorted, b.Lower)
		return dominators < k
	}), cost
}

// RNNCandidatesTree returns the reverse-NN candidate set of RNNCandidates by
// filter-refine tree descent. Filter: a subtree is skipped when a single
// pooled region disjoint from its MBR dominates the whole MBR over q — such
// a region belongs to every skipped object's scan candidate set and
// dominates its whole uncertainty region, so the scan would prune it too.
// Refine: surviving objects run the scan's exact domination test, with the
// dominator superset retrieved through the tree instead of a linear pass
// (regions beyond the object's reach can never dominate any of its points,
// so the extra L∞-window hits leave the tester's outcome unchanged).
func RNNCandidatesTree(t *rtree.Tree, q geom.Point, maxDepth int) ([]uncertain.ID, rtree.Cost) {
	if t == nil || t.Len() == 0 {
		return nil, rtree.Cost{}
	}
	target := geom.PointRect(q)

	// Dominator pool: the regions nearest q by mindist, fetched through the
	// same bounded branch-and-bound primitive so the pool cost is attributed.
	minDist := func(r geom.Rect) float64 { return r.MinDist(q) }
	poolItems, poolBound, cost := t.KthBound(minDist, minDist, rnnPoolSize, nil)
	pool := make([]geom.Rect, 0, rnnPoolSize)
	for _, it := range poolItems {
		if it.Lower <= poolBound {
			pool = append(pool, it.Rect)
		}
	}

	prune := func(m geom.Rect) bool {
		for _, c := range pool {
			// c ∩ M = ∅ guarantees c is not inside the subtree (subtree
			// regions are contained in M), so it never prunes itself.
			if !c.Intersects(m) && domination.Dominates(c, target, m) {
				return true
			}
		}
		return false
	}

	var out []uncertain.ID
	var scratch []rtree.Item
	wcost := t.Walk(prune, func(item rtree.Item) {
		r := item.Rect
		// Cheap accept: q inside (or touching) u(o) — the object can realize
		// a position arbitrarily close to q.
		if r.Contains(q) {
			out = append(out, uncertain.ID(item.ID))
			return
		}
		reach := r.MaxDist(q) // everything farther cannot matter
		var sc rtree.Cost
		scratch, sc = t.Search(r.Expand(reach), scratch[:0])
		cost.Add(sc)
		cands := make([]geom.Rect, 0, len(scratch))
		for _, other := range scratch {
			if other.ID != item.ID {
				cands = append(cands, other.Rect)
			}
		}
		tester := domination.NewTester(cands, target, maxDepth)
		if !tester.RegionPrunable(r) {
			out = append(out, uncertain.ID(item.ID))
		}
	})
	cost.Add(wcost)
	slices.Sort(out)
	return out, cost
}
