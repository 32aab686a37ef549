package extquery

import (
	"math"
	"slices"
	"sync"

	"pvoronoi/internal/adjgraph"
	"pvoronoi/internal/geom"
	"pvoronoi/internal/uncertain"
)

// This file holds the Voronoi-adjacency retrieval paths: the same candidate
// definitions as extquery.go's scans and tree.go's branch-and-bound, answered
// by best-first expansion over the materialized UBR-adjacency graph
// (adjgraph). The expansion seeds at the cells covering an anchor point and
// walks neighbor-to-neighbor outward, so it touches only the query's
// Voronoi neighborhood — no tree descent, no global structure at all.
//
// Exactness rests on a covering argument. PV-cells are closed sets that
// cover the domain, and any two cells sharing a point have intersecting
// UBRs (each UBR contains its cell), i.e. they are graph neighbors. Walk
// the segment from the anchor a to any point x: the cells touching the
// segment form a connected chain in the graph, and each chain cell's key —
// the aggregate-mindist lower bound of its UBR — is at most the aggregate
// distance f(y) of some segment point y it contains. Since f is convex, f
// along the segment never exceeds max(f(a), f(x)). Therefore every object
// whose relevant point x satisfies f(x) <= B is reached before the frontier
// minimum exceeds max(f(a), B) — the stop bound used below, with B the
// running candidate bound (k-th maxdist for kNN, best aggMax for group NN).
// The final filter over the visited rows then replicates the scan verbatim.

// GraphCost attributes the work of one graph expansion.
type GraphCost struct {
	// Nodes counts the rows expanded (heap pops within the stop bound).
	Nodes int
	// Edges counts the adjacency links examined while expanding those rows.
	Edges int
}

// graphItem is one frontier entry: a row keyed by the aggregate-mindist
// lower bound of its UBR. Rows are immutable, so holding the pointer across
// the expansion is safe even under concurrent writers.
type graphItem struct {
	key float64
	id  uint32
	row *adjgraph.Row
}

// graphHeap is a hand-rolled binary min-heap over frontier keys (no
// interface indirection in the expansion hot loop).
type graphHeap []graphItem

func (h *graphHeap) push(it graphItem) {
	*h = append(*h, it)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if s[p].key <= s[i].key {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

func (h *graphHeap) pop() graphItem {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(s) && s[l].key < s[m].key {
			m = l
		}
		if r < len(s) && s[r].key < s[m].key {
			m = r
		}
		if m == i {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	return top
}

// graphScratch holds the reusable state of one best-first expansion — the
// frontier heap and the visited set — mirroring queryScratch in pvindex so
// steady-state expansions perform no per-call allocation.
//
// The visited set is the expansion's hottest structure: it is probed once
// per examined edge, and after refinement shrinks the hubs the per-edge map
// hash was the single largest term in the 100k kNN profile. Dense IDs (the
// overwhelmingly common case — the index allocates them small) use an
// epoch-stamped array instead: marking is one indexed store, re-arming is a
// counter increment, and nothing is cleared between queries. IDs at or
// beyond the array ceiling fall back to a map, so correctness never depends
// on the ID distribution.
type graphScratch struct {
	heap   graphHeap
	stamps []uint32            // stamps[id] == stamp ⇒ id seen this run
	stamp  uint32              // current run's epoch; 0 is never a valid mark
	seen   map[uint32]struct{} // fallback for id >= maxStampIDs
}

// maxStampIDs caps the stamp array at 4 MB per pooled scratch. Graphs whose
// IDs exceed it still work — those IDs take the map path.
const maxStampIDs = 1 << 20

// arm readies the scratch for one expansion: bump the epoch (clearing the
// stamp array only on the ~never wraparound) and reset the fallback set.
func (sc *graphScratch) arm() {
	sc.stamp++
	if sc.stamp == 0 {
		clear(sc.stamps)
		sc.stamp = 1
	}
	if len(sc.seen) > 0 {
		clear(sc.seen)
	}
}

// mark records id as seen and reports whether it was new.
func (sc *graphScratch) mark(id uint32) bool {
	if id < maxStampIDs {
		if int(id) >= len(sc.stamps) {
			grown := 256
			for grown <= int(id) {
				grown *= 2
			}
			if grown > maxStampIDs {
				grown = maxStampIDs
			}
			next := make([]uint32, grown)
			copy(next, sc.stamps)
			sc.stamps = next
		}
		if sc.stamps[id] == sc.stamp {
			return false
		}
		sc.stamps[id] = sc.stamp
		return true
	}
	if _, dup := sc.seen[id]; dup {
		return false
	}
	sc.seen[id] = struct{}{}
	return true
}

var graphScratchPool = sync.Pool{New: func() any {
	return &graphScratch{seen: make(map[uint32]struct{}, 16)}
}}

// expandGraph runs the shared best-first expansion. key gives a row's
// frontier key (a lower bound of the aggregate distance anywhere in its
// UBR); visit consumes an expanded row and returns the updated stop bound,
// which must be monotone nonincreasing across calls. Expansion stops when
// the frontier minimum exceeds the bound; neighbors already over the bound
// are pruned at push time (keys are fixed and the bound only shrinks, so
// they could never be expanded later).
func expandGraph(g *adjgraph.Graph, seeds []uint32, key func(*adjgraph.Row) float64, visit func(uint32, *adjgraph.Row) float64) GraphCost {
	var cost GraphCost
	if g == nil {
		return cost
	}
	sc := graphScratchPool.Get().(*graphScratch)
	sc.arm()
	defer func() {
		sc.heap = sc.heap[:0]
		graphScratchPool.Put(sc)
	}()
	h := &sc.heap
	for _, id := range seeds {
		if !sc.mark(id) {
			continue
		}
		if row, ok := g.Get(id); ok {
			h.push(graphItem{key: key(row), id: id, row: row})
		}
	}
	bound := math.Inf(1)
	for len(*h) > 0 {
		it := h.pop()
		if it.key > bound {
			break
		}
		cost.Nodes++
		bound = visit(it.id, it.row)
		for _, n := range it.row.Neighbors {
			cost.Edges++
			if !sc.mark(n) {
				continue
			}
			row, ok := g.Get(n)
			if !ok {
				continue
			}
			if k := key(row); k <= bound {
				h.push(graphItem{key: k, id: n, row: row})
			}
		}
	}
	return cost
}

// kthTracker maintains the k smallest maxdists seen, exposing the running
// k-th smallest as the expansion stop bound (+Inf until k values arrive).
type kthTracker struct {
	k    int
	heap []float64 // max-heap
}

func (t *kthTracker) add(d float64) {
	if len(t.heap) < t.k {
		t.heap = append(t.heap, d)
		i := len(t.heap) - 1
		for i > 0 {
			p := (i - 1) / 2
			if t.heap[p] >= t.heap[i] {
				break
			}
			t.heap[p], t.heap[i] = t.heap[i], t.heap[p]
			i = p
		}
		return
	}
	if d >= t.heap[0] {
		return
	}
	t.heap[0] = d
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(t.heap) && t.heap[l] > t.heap[m] {
			m = l
		}
		if r < len(t.heap) && t.heap[r] > t.heap[m] {
			m = r
		}
		if m == i {
			break
		}
		t.heap[i], t.heap[m] = t.heap[m], t.heap[i]
		i = m
	}
}

func (t *kthTracker) bound() float64 {
	if len(t.heap) < t.k {
		return math.Inf(1)
	}
	return t.heap[0]
}

// knnVisited is one expanded row's exact distance interval.
type knnVisited struct {
	id         uint32
	dmin, dmax float64
}

// knnScratch recycles the graph retrievals' per-query slices (visited rows
// for kNN and group NN; k-th tracker heap and sorted maxdists for kNN) — only
// the returned candidate slice is allocated per call.
type knnScratch struct {
	vis  []knnVisited
	kth  []float64
	smax []float64
}

var knnScratchPool = sync.Pool{New: func() any { return &knnScratch{} }}

// KNNCandidatesGraph returns the k-NN candidate set of KNNCandidates by
// best-first expansion over the UBR-adjacency graph, seeded with the IDs of
// the cells covering q (a superset is fine — extra seeds only add sources).
// The frontier is keyed by mindist(UBR, q); since mindist to a single point
// is attained by an actual point of the rectangle, the covering argument
// needs no slack: the stop bound is exactly the running k-th smallest
// maxdist. Every object the scan's k-th-maxdist filter can admit — and
// every potential dominator — is therefore visited, and the final filter
// replicates the scan's verbatim.
func KNNCandidatesGraph(db *uncertain.DB, g *adjgraph.Graph, seeds []uint32, q geom.Point, k int) ([]uncertain.ID, GraphCost) {
	if db == nil || g == nil || g.Len() == 0 || k <= 0 {
		return nil, GraphCost{}
	}
	sc := knnScratchPool.Get().(*knnScratch)
	kth := kthTracker{k: k, heap: sc.kth[:0]}
	sc.vis = sc.vis[:0]
	defer func() {
		sc.kth = kth.heap
		knnScratchPool.Put(sc)
	}()
	cost := expandGraph(g, seeds,
		func(row *adjgraph.Row) float64 { return row.UBR.MinDist(q) },
		func(id uint32, _ *adjgraph.Row) float64 {
			if o := db.Get(uncertain.ID(id)); o != nil {
				dmin, dmax := o.Region.MinDist(q), o.Region.MaxDist(q)
				sc.vis = append(sc.vis, knnVisited{id: id, dmin: dmin, dmax: dmax})
				kth.add(dmax)
			}
			return kth.bound()
		})
	vis := sc.vis
	if len(vis) == 0 {
		return nil, cost
	}

	// The k objects with the globally smallest maxdists are all visited
	// (each has dmin <= maxdist <= global k-th), so the k-th smallest over
	// the visited set equals the scan's global k-th; so is every potential
	// dominator of a visited candidate. The filter below is tree.go's.
	sortedMax := sc.smax[:0]
	for i := range vis {
		sortedMax = append(sortedMax, vis[i].dmax)
	}
	sc.smax = sortedMax
	slices.Sort(sortedMax)
	kthVal := sortedMax[min(k, len(sortedMax))-1]

	var out []uncertain.ID
	for i := range vis {
		dmin := vis[i].dmin
		if dmin > kthVal {
			continue // at least k objects are surely closer
		}
		if dominators, _ := slices.BinarySearch(sortedMax, dmin); dominators < k {
			out = append(out, uncertain.ID(vis[i].id))
		}
	}
	slices.Sort(out)
	return out, cost
}

// GroupAnchor returns the expansion anchor for a group query: an approximate
// minimizer of the aggregate distance to Q (Weiszfeld iterations for the
// geometric median under AggSum, shrinking steps toward the farthest point
// for the 1-center under AggMax). Exactness never depends on the anchor's
// quality — the stop bound folds in the anchor's own aggregate value — a
// good anchor only shrinks the visited neighborhood. It only has to be a
// finite point, and always is: query points far enough apart overflow the
// squared distances (weights 0/0) or the centroid itself, so an iterate that
// comes out non-finite is dropped for the last finite one, and a non-finite
// centroid for the first query point, clamped.
func GroupAnchor(qs []geom.Point, agg Agg) geom.Point {
	if len(qs) == 0 {
		return nil
	}
	dim := len(qs[0])
	buf := make(geom.Point, 2*dim) // the iterate and the next one; the result is one of the halves
	z, next := buf[:dim:dim], buf[dim:]
	for _, q := range qs {
		for j := range z {
			z[j] += q[j]
		}
	}
	for j := range z {
		z[j] /= float64(len(qs))
	}
	if !z.IsFinite() {
		for j, v := range qs[0] {
			z[j] = 0
			if !math.IsNaN(v) {
				z[j] = max(-math.MaxFloat64, min(v, math.MaxFloat64))
			}
		}
		return z
	}
	const iters = 8
	for i := 0; i < iters; i++ {
		if agg == AggMax {
			// Badoiu–Clarkson: step toward the farthest point with shrinking
			// step size approximates the minimum enclosing ball center.
			far, fd := 0, -1.0
			for k, q := range qs {
				if d := geom.Dist(z, q); d > fd {
					far, fd = k, d
				}
			}
			step := 1 / float64(i+2)
			for j := range next {
				next[j] = z[j] + step*(qs[far][j]-z[j])
			}
		} else {
			var wsum float64
			clear(next)
			for _, q := range qs {
				d := geom.Dist(z, q)
				if d == 0 {
					return z // at a query point: good enough as an anchor
				}
				w := 1 / d
				wsum += w
				for j := range next {
					next[j] += w * q[j]
				}
			}
			for j := range next {
				next[j] /= wsum
			}
		}
		if !next.IsFinite() {
			return z
		}
		z, next = next, z
	}
	return z
}

// GroupNNCandidatesGraph returns the group-NN candidate set of
// GroupNNCandidates by best-first expansion over the UBR-adjacency graph,
// seeded with the IDs of the cells covering anchor (GroupAnchor; any in-
// domain point is sound). The frontier is keyed by the rectangle aggregate
// lower bound of each row's UBR.
//
// Unlike the single-point case, the rectangle lower bound aggMin(r(o), Q)
// is not attained by one point, so a candidate's true best aggregate value
// f(x*) can exceed its admission bound aggMin(r(o)) by up to L·diam(r(o)),
// where r(o) is the uncertainty region and L the aggregate's Lipschitz
// constant (|Q| for sum, 1 for max). The stop bound therefore carries that
// slack, using the graph's monotone max-region-diameter (MaxDiag, supplied
// per row by the index): the cell chain from the anchor to x* has keys
// bounded by max(f(anchor), f(x*)) <= max(f(anchor), best + L·maxDiag) by
// convexity of f along the segment, so every scan candidate is fully
// visited. The final filter — aggMin <= best — replicates the scan
// verbatim. Note the slack needs only the candidate's own region diameter,
// not its (much larger) UBR diagonal — the UBRs enter solely through the
// connectivity of the chain.
func GroupNNCandidatesGraph(db *uncertain.DB, g *adjgraph.Graph, seeds []uint32, anchor geom.Point, qs []geom.Point, agg Agg) ([]uncertain.ID, GraphCost) {
	if db == nil || g == nil || g.Len() == 0 || len(qs) == 0 {
		return nil, GraphCost{}
	}
	lip := 1.0
	if agg == AggSum {
		lip = float64(len(qs))
	}
	slack := lip * g.MaxDiag()
	fAnchor := aggPoint(anchor, qs, agg)
	best := math.Inf(1)
	sc := knnScratchPool.Get().(*knnScratch)
	sc.vis = sc.vis[:0] // dmin holds the aggregate lower bound; dmax is not used
	defer knnScratchPool.Put(sc)
	cost := expandGraph(g, seeds,
		func(row *adjgraph.Row) float64 { return aggMin(row.UBR, qs, agg) },
		func(id uint32, _ *adjgraph.Row) float64 {
			if o := db.Get(uncertain.ID(id)); o != nil {
				if ub := aggMax(o.Region, qs, agg); ub < best {
					best = ub
				}
				sc.vis = append(sc.vis, knnVisited{id: id, dmin: aggMin(o.Region, qs, agg)})
			}
			return math.Max(fAnchor, best+slack)
		})
	var out []uncertain.ID
	for _, v := range sc.vis {
		if v.dmin <= best {
			out = append(out, uncertain.ID(v.id))
		}
	}
	slices.Sort(out)
	return out, cost
}
