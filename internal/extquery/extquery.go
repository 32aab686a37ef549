// Package extquery implements the query extensions the paper's conclusion
// points to as future work for the PV-index: probabilistic group nearest
// neighbor queries (Lian & Chen, TKDE 2008), probabilistic k-NN candidate
// retrieval, and probabilistic reverse NN candidate retrieval (Cheema et
// al., TKDE 2010; Bernecker et al., VLDB 2011).
//
// Each query comes with a brute-force oracle (used by tests) and an
// index-assisted path built on the same substrates as PNNQ: region-level
// min/max distance bounds for retrieval, instance-level computation for
// probabilities.
package extquery

import (
	"math"
	"slices"

	"pvoronoi/internal/domination"
	"pvoronoi/internal/geom"
	"pvoronoi/internal/pnnq"
	"pvoronoi/internal/uncertain"
)

// Agg selects the aggregate used by group queries.
type Agg int

const (
	// AggSum minimizes the sum of distances to the group's query points.
	AggSum Agg = iota
	// AggMax minimizes the maximum distance to the group's query points.
	AggMax
)

// aggMin returns a lower bound of min_{x ∈ u(o)} agg(x, Q): the aggregate of
// the per-point minimum distances. (The same x must serve every q, so this
// is a bound, not the exact optimum — sound for pruning.)
func aggMin(region geom.Rect, qs []geom.Point, agg Agg) float64 {
	var sum, max float64
	for _, q := range qs {
		d := region.MinDist(q)
		sum += d
		if d > max {
			max = d
		}
	}
	if agg == AggMax {
		return max
	}
	return sum
}

// aggMax returns an upper bound of max_{x ∈ u(o)} agg(x, Q).
func aggMax(region geom.Rect, qs []geom.Point, agg Agg) float64 {
	var sum, max float64
	for _, q := range qs {
		d := region.MaxDist(q)
		sum += d
		if d > max {
			max = d
		}
	}
	if agg == AggMax {
		return max
	}
	return sum
}

// aggPoint evaluates agg(x, Q) for a concrete instance position.
func aggPoint(x geom.Point, qs []geom.Point, agg Agg) float64 {
	var sum, max float64
	for _, q := range qs {
		d := geom.Dist(x, q)
		sum += d
		if d > max {
			max = d
		}
	}
	if agg == AggMax {
		return max
	}
	return sum
}

// GroupNNCandidates returns the objects that may minimize the aggregate
// distance to the query group Q: those whose aggregate lower bound does not
// exceed the smallest aggregate upper bound. The result is a conservative
// superset of the exact possible set (region bounds are not tight for
// groups); instance-level refinement happens in GroupNNProbs.
func GroupNNCandidates(db *uncertain.DB, qs []geom.Point, agg Agg) []uncertain.ID {
	objs := db.Objects()
	if len(objs) == 0 || len(qs) == 0 {
		return nil
	}
	best := math.Inf(1)
	for _, o := range objs {
		if ub := aggMax(o.Region, qs, agg); ub < best {
			best = ub
		}
	}
	var out []uncertain.ID
	for _, o := range objs {
		if aggMin(o.Region, qs, agg) <= best {
			out = append(out, o.ID)
		}
	}
	slices.Sort(out)
	return out
}

// GroupNNProbs computes each candidate's probability of being the group
// nearest neighbor, from the objects' instances (objects without instances
// are skipped). Probabilities are exact under the discrete model restricted
// to the candidate set.
func GroupNNProbs(db *uncertain.DB, ids []uncertain.ID, qs []geom.Point, agg Agg) []pnnq.Result {
	return GroupNNScores(ids, instancesOf(db, ids), qs, agg)
}

// GroupNNScores is GroupNNProbs over snapshotted instance data (instances[i]
// belongs to ids[i]; candidates with no instances are skipped). It touches no
// shared index state, so callers run it outside the index lock on a
// consistent snapshot.
func GroupNNScores(ids []uncertain.ID, instances [][]uncertain.Instance, qs []geom.Point, agg Agg) []pnnq.Result {
	return scores(ids, instances, func(x geom.Point) float64 { return aggPoint(x, qs, agg) }).NN()
}

// scores fills a Step-2 kernel with score(instance position) and the instance
// probability for every candidate that has instances.
func scores(ids []uncertain.ID, instances [][]uncertain.Instance, score func(geom.Point) float64) *pnnq.Sweep {
	s := pnnq.NewSweep()
	for i, id := range ids {
		if len(instances[i]) == 0 {
			continue
		}
		ents := s.Add(id, len(instances[i]))
		for j, in := range instances[i] {
			ents[j].Score, ents[j].Weight = score(in.Pos), in.Prob
		}
	}
	return s
}

// instancesOf gathers the stored instances of each id (nil for missing
// objects), adapting direct-database callers to the snapshot signature.
func instancesOf(db *uncertain.DB, ids []uncertain.ID) [][]uncertain.Instance {
	out := make([][]uncertain.Instance, len(ids))
	for i, id := range ids {
		if o := db.Get(id); o != nil {
			out[i] = o.Instances
		}
	}
	return out
}

// GroupNNBruteForce is the oracle: the exact region-level candidate set by
// linear scan (identical definition to GroupNNCandidates, without an index).
func GroupNNBruteForce(db *uncertain.DB, qs []geom.Point, agg Agg) []uncertain.ID {
	return GroupNNCandidates(db, qs, agg)
}

// KNNCandidates returns the objects with a non-zero chance of ranking among
// the k nearest to q: those strictly dominated by fewer than k other
// objects (distmax(o', q) < distmin(o, q) for fewer than k choices of o').
func KNNCandidates(db *uncertain.DB, q geom.Point, k int) []uncertain.ID {
	objs := db.Objects()
	if len(objs) == 0 || k <= 0 {
		return nil
	}
	maxDists := make([]float64, len(objs))
	for i, o := range objs {
		maxDists[i] = o.MaxDist(q)
	}
	// kth smallest max distance bounds the candidates.
	sortedMax := append([]float64(nil), maxDists...)
	slices.Sort(sortedMax)
	kth := sortedMax[min(k, len(sortedMax))-1]

	var out []uncertain.ID
	for _, o := range objs {
		dmin := o.MinDist(q)
		if dmin > kth {
			continue // at least k objects are surely closer
		}
		// Exact test: count strict dominators.
		dominators := 0
		for _, other := range objs {
			if other.ID != o.ID && other.MaxDist(q) < dmin {
				dominators++
				if dominators >= k {
					break
				}
			}
		}
		if dominators < k {
			out = append(out, o.ID)
		}
	}
	slices.Sort(out)
	return out
}

// KNNProbs computes, for each candidate, the probability of ranking within
// the k nearest to q, from stored instances (Poisson-binomial dynamic
// program; see pnnq.ComputeKNN).
func KNNProbs(db *uncertain.DB, ids []uncertain.ID, q geom.Point, k int) []pnnq.KNNResult {
	return KNNScores(ids, instancesOf(db, ids), q, k)
}

// KNNScores is KNNProbs over snapshotted instance data (instances[i] belongs
// to ids[i]; candidates with no instances are skipped). Like GroupNNScores it
// is lock-free: the expensive probability refinement runs on the snapshot.
func KNNScores(ids []uncertain.ID, instances [][]uncertain.Instance, q geom.Point, k int) []pnnq.KNNResult {
	return scores(ids, instances, func(x geom.Point) float64 { return geom.Dist(x, q) }).KNN(k)
}

// RNNCandidates returns the objects with a non-zero chance that q is their
// nearest neighbor (treating q as a new point object): object o qualifies
// unless every point of u(o) is spatially dominated over q by some other
// object — decided with the same domination-count machinery as SE Step 9,
// with the query point as the domination target.
//
// The scan is O(|S|) with early pruning per object; the paper leaves an
// index structure for reverse queries as future work.
func RNNCandidates(db *uncertain.DB, q geom.Point, maxDepth int) []uncertain.ID {
	objs := db.Objects()
	if len(objs) == 0 {
		return nil
	}
	target := geom.PointRect(q)
	var out []uncertain.ID
	for _, o := range objs {
		// Cheap accept: if q is inside (or touching) u(o), the object can
		// realize a position arbitrarily close to q.
		if o.Region.Contains(q) {
			out = append(out, o.ID)
			continue
		}
		// Collect potentially dominating neighbors: o'' can exclude some
		// x ∈ u(o) only if distmax(o'', x) < dist(x, q) somewhere, which
		// requires o'' to be nearer to u(o) than q in the worst case.
		reach := o.Region.MaxDist(q) // everything farther cannot matter
		var cands []geom.Rect
		for _, other := range objs {
			if other.ID == o.ID {
				continue
			}
			if other.Region.MinDistRect(o.Region) <= reach {
				cands = append(cands, other.Region)
			}
		}
		tester := domination.NewTester(cands, target, maxDepth)
		if !tester.RegionPrunable(o.Region) {
			out = append(out, o.ID)
		}
	}
	slices.Sort(out)
	return out
}

// RNNBruteForce is the instance-level oracle: o qualifies iff some instance
// x of o satisfies dist(x, q) <= distmax(o', x) for every other object o'.
// For region-only objects the region's corners and center stand in for
// instances (a sampled approximation used only in tests with instances).
func RNNBruteForce(db *uncertain.DB, q geom.Point) []uncertain.ID {
	objs := db.Objects()
	var out []uncertain.ID
	for _, o := range objs {
		if len(o.Instances) == 0 {
			continue
		}
		possible := false
		for _, in := range o.Instances {
			dq := geom.Dist(in.Pos, q)
			ok := true
			for _, other := range objs {
				if other.ID == o.ID {
					continue
				}
				if other.Region.MaxDist(in.Pos) < dq {
					ok = false
					break
				}
			}
			if ok {
				possible = true
				break
			}
		}
		if possible {
			out = append(out, o.ID)
		}
	}
	slices.Sort(out)
	return out
}
