package rtree

import (
	"math"

	"pvoronoi/internal/geom"
)

// The distance browse as it was before the pointer-free heap: an 80-byte
// heap item carrying the node or the item itself, a fresh heap per call.
// Kept verbatim (only the iterator's name changed) as the oracle of
// TestBrowseMatchesReference: same (dist, order) comparison, same order
// numbering, hence the pop sequence the production iterator must repeat.

// nnHeapItem is a priority-queue element for distance browsing.
type nnHeapItem struct {
	dist  float64
	node  *node // nil for item entries
	item  Item
	order int64 // tie-break for determinism
}

// nnHeap is a binary min-heap on (dist, order), typed so that pushes do not
// box every item. order is unique per push, so the pop sequence is fixed.
type nnHeap []nnHeapItem

func (a nnHeapItem) less(b nnHeapItem) bool {
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	return a.order < b.order
}

func (h *nnHeap) push(it nnHeapItem) {
	s := append(*h, it)
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if !s[i].less(s[p]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
	*h = s
}

func (h *nnHeap) pop() nnHeapItem {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	for i, c := 0, 1; c < n; i, c = c, 2*c+1 {
		if c+1 < n && s[c+1].less(s[c]) {
			c++
		}
		if !s[c].less(s[i]) {
			break
		}
		s[i], s[c] = s[c], s[i]
	}
	*h = s
	return top
}

type refNNIter struct {
	tree    *Tree
	q       geom.Point
	distFn  DistFunc
	h       nnHeap
	counter int64
	leaves  int
}

func newRefNNIter(t *Tree, q geom.Point, distFn DistFunc) *refNNIter {
	it := &refNNIter{tree: t, q: q, distFn: distFn}
	if t.size > 0 {
		it.h.push(nnHeapItem{dist: t.root.mbr().MinDist(q), node: t.root})
	}
	return it
}

// Next returns the next item in distance order.
func (it *refNNIter) Next() (Item, float64, bool) {
	for len(it.h) > 0 {
		top := it.h.pop()
		if top.node == nil {
			return top.item, top.dist, true
		}
		n := top.node
		if n.leaf() {
			it.leaves++
			for _, e := range n.entries {
				it.counter++
				it.h.push(nnHeapItem{dist: it.distFn(e.rect), item: e.item, order: it.counter})
			}
			continue
		}
		for _, e := range n.entries {
			it.counter++
			it.h.push(nnHeapItem{dist: e.rect.MinDist(it.q), node: e.child, order: it.counter})
		}
	}
	return Item{}, 0, false
}

// referenceChooseSubtree is chooseSubtree as it was before level 1's
// shortcut for a child that contains the new rectangle, kept verbatim (only
// the receiver became a parameter) as the oracle of
// TestChooseSubtreeMatchesReference.
func referenceChooseSubtree(n *node, r geom.Rect) int {
	best := 0
	if n.level == 1 {
		// Minimum overlap enlargement, ties by area enlargement then area.
		bestOverlap, bestEnl, bestArea := math.Inf(1), math.Inf(1), math.Inf(1)
		for i := range n.entries {
			er := n.entries[i].rect
			var overlapBefore, overlapAfter float64
			for j := range n.entries {
				if i == j {
					continue
				}
				f := n.entries[j].rect
				overlapBefore += overlapVolume(er, er, f)
				overlapAfter += overlapVolume(er, r, f)
			}
			dOverlap := overlapAfter - overlapBefore
			area := er.Volume()
			enl := unionVolume(er, r) - area
			if dOverlap < bestOverlap ||
				(dOverlap == bestOverlap && enl < bestEnl) ||
				(dOverlap == bestOverlap && enl == bestEnl && area < bestArea) {
				best, bestOverlap, bestEnl, bestArea = i, dOverlap, enl, area
			}
		}
		return best
	}
	bestEnl, bestArea := math.Inf(1), math.Inf(1)
	for i := range n.entries {
		area := n.entries[i].rect.Volume()
		enl := unionVolume(n.entries[i].rect, r) - area
		if enl < bestEnl || (enl == bestEnl && area < bestArea) {
			best, bestEnl, bestArea = i, enl, area
		}
	}
	return best
}
