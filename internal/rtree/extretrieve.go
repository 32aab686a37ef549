// Best-first branch-and-bound retrieval primitives for the extension
// queries (group NN, possible k-NN, reverse NN). They generalize PossibleNN:
// the caller supplies lower/upper bound functions over rectangles, and the
// tree prunes subtrees whose lower bound exceeds the running k-th smallest
// upper bound. Like every query on the tree, each primitive returns a
// per-call Cost, so concurrent queries get exact attribution.
package rtree

import (
	"math"

	"pvoronoi/internal/geom"
)

// Cost counts the node accesses of one index-assisted retrieval: internal
// nodes visited and leaf pages read (the simulated disk I/O of the paper's
// experiments).
type Cost struct {
	Nodes  int
	Leaves int
}

// Add accumulates c2 into c.
func (c *Cost) Add(c2 Cost) {
	c.Nodes += c2.Nodes
	c.Leaves += c2.Leaves
}

// kMax is a bounded max-heap holding the k smallest values pushed so far;
// its root is the running k-th smallest (the branch-and-bound cutoff).
type kMax struct {
	vals []float64
	k    int
}

// push offers v and returns the current k-th smallest value, or +Inf while
// fewer than k values have been seen.
func (h *kMax) push(v float64) float64 {
	if len(h.vals) < h.k {
		h.vals = append(h.vals, v)
		for i := len(h.vals) - 1; i > 0; {
			p := (i - 1) / 2
			if h.vals[p] >= h.vals[i] {
				break
			}
			h.vals[p], h.vals[i] = h.vals[i], h.vals[p]
			i = p
		}
		if len(h.vals) < h.k {
			return math.Inf(1)
		}
		return h.vals[0]
	}
	if v >= h.vals[0] {
		return h.vals[0]
	}
	h.vals[0] = v
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < len(h.vals) && h.vals[l] > h.vals[big] {
			big = l
		}
		if r < len(h.vals) && h.vals[r] > h.vals[big] {
			big = r
		}
		if big == i {
			break
		}
		h.vals[i], h.vals[big] = h.vals[big], h.vals[i]
		i = big
	}
	return h.vals[0]
}

// Bounded is an item KthBound kept, with the bounds it evaluated for it.
type Bounded struct {
	Item
	Lower, Upper float64
}

// KthBound browses the tree best-first by a lower-bound key until the k-th
// smallest upper bound proves the remainder irrelevant. It appends the items
// it keeps to dst and returns the extended slice; on return, bound is the
// k-th smallest upper(item.Rect) over the WHOLE tree (+Inf when the tree
// holds fewer than k items), the appended items are a superset of
// {item : lower(item.Rect) <= bound}, and every item absent from them has
// lower(item.Rect) > bound. An entry whose lower bound already exceeds the
// running cutoff when its leaf is read is dropped outright: since
// upper >= lower it can neither qualify nor tighten the cutoff further.
//
// Each kept item's lower and upper bound is evaluated exactly once and
// stored with it, so callers filter on Lower/Upper instead of recomputing
// them; the running k-th heap lives in the pooled browse, so a caller that
// recycles dst pays no allocation here.
//
// lower must be monotone (lower(R) <= lower(r) whenever r ⊆ R) and must
// lower-bound upper on every item rectangle. Both hold for aggregate
// min/max-distance bounds, which makes the kept set exactly reproduce what
// a linear scan filtered by the same bound would keep.
func (t *Tree) KthBound(lower, upper func(geom.Rect) float64, k int, dst []Bounded) (items []Bounded, bound float64, cost Cost) {
	bound = math.Inf(1)
	if t.size == 0 || k <= 0 {
		return dst, bound, cost
	}
	h := newBrowse(t)
	kth := kMax{k: k, vals: h.kth[:0]}
	defer func() {
		h.kth = kth.vals
		h.Release()
	}()
	for len(h.heap) > 0 {
		dist, top := h.pop()
		if dist > bound {
			break // best-first order: everything left is at least as far
		}
		n := top.child
		if n.leaf() {
			cost.Leaves++
			for _, e := range n.entries {
				lo := lower(e.rect)
				if lo > bound {
					continue
				}
				up := upper(e.rect)
				bound = kth.push(up)
				dst = append(dst, Bounded{Item: e.item, Lower: lo, Upper: up})
			}
			continue
		}
		cost.Nodes++
		for i := range n.entries {
			e := &n.entries[i]
			if d := lower(e.rect); d <= bound {
				h.push(d, e)
			}
		}
	}
	return dst, bound, cost
}

// Walk descends the tree depth-first. prune is consulted with each subtree's
// bounding rectangle (including the root's) before descent — returning true
// skips the subtree without touching its pages. visit receives every leaf
// entry of the surviving subtrees.
func (t *Tree) Walk(prune func(geom.Rect) bool, visit func(Item)) (cost Cost) {
	if t.size == 0 {
		return cost
	}
	if prune != nil && prune(t.root.mbr()) {
		return cost
	}
	var rec func(n *node)
	rec = func(n *node) {
		if n.leaf() {
			cost.Leaves++
			for _, e := range n.entries {
				visit(e.item)
			}
			return
		}
		cost.Nodes++
		for _, e := range n.entries {
			if prune != nil && prune(e.rect) {
				continue
			}
			rec(e.child)
		}
	}
	rec(t.root)
	return cost
}
