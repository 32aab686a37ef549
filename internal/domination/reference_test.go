package domination

import "pvoronoi/internal/geom"

// refTester is the recursive domination-count tester that Tester replaced,
// kept verbatim as the differential reference: it calls the exported
// Dominates/CannotDominate specification once per candidate, filters the live
// set with append, and recurses through a fresh tester per level. Tester must
// return the same boolean and count the same number of tests on every input.
type refTester struct {
	Candidates []geom.Rect
	Target     geom.Rect
	MaxDepth   int
	Tests      int64
}

func newRefTester(candidates []geom.Rect, target geom.Rect, maxDepth int) *refTester {
	if maxDepth < 0 {
		maxDepth = 0
	}
	return &refTester{Candidates: candidates, Target: target, MaxDepth: maxDepth}
}

func (t *refTester) RegionPrunable(r geom.Rect) bool {
	return t.prunable(r, t.MaxDepth)
}

func (t *refTester) prunable(r geom.Rect, depth int) bool {
	live := t.Candidates[:0:0]
	for _, c := range t.Candidates {
		t.Tests++
		if Dominates(c, t.Target, r) {
			return true
		}
		if !CannotDominate(c, t.Target, r) {
			live = append(live, c)
		}
	}
	if depth == 0 || len(live) == 0 {
		return false
	}
	lo, hi := refBisect(r)
	sub := &refTester{Candidates: live, Target: t.Target, MaxDepth: depth - 1}
	ok := sub.prunable(lo, depth-1) && sub.prunable(hi, depth-1)
	t.Tests += sub.Tests
	return ok
}

// refBisect splits r into two halves along its longest side.
func refBisect(r geom.Rect) (geom.Rect, geom.Rect) {
	best := 0
	for j := 1; j < r.Dim(); j++ {
		if r.Side(j) > r.Side(best) {
			best = j
		}
	}
	mid := (r.Lo[best] + r.Hi[best]) / 2
	lo := r.Clone()
	hi := r.Clone()
	lo.Hi[best] = mid
	hi.Lo[best] = mid
	return lo, hi
}

// refShrinkExpand is the SE loop as it stood in internal/core before
// ShrinkExpand moved into this package and began to remember covers, kept
// verbatim: every plate is proved from scratch by the stateless
// RegionPrunable.
func refShrinkExpand(tester *Tester, l, h geom.Rect, delta float64) (iterations, shrinks int) {
	if delta <= 0 {
		delta = 1e-9 // Δ=0 would loop forever on irrational boundaries
	}
	// slab is h with one face moved to the midplane for the duration of a
	// probe; the tester copies what it is handed.
	slab := h.Clone()
	for refMaxGap(l, h) >= delta {
		progressed := false
		for j := range h.Lo {
			// Low direction: candidate slab between h.Lo and the midplane.
			if h.Lo[j] < l.Lo[j] {
				mid := (h.Lo[j] + l.Lo[j]) / 2
				slab.Hi[j] = mid
				prunable := tester.RegionPrunable(slab)
				slab.Hi[j] = h.Hi[j]
				iterations++
				if prunable {
					h.Lo[j], slab.Lo[j] = mid, mid
					shrinks++
				} else {
					l.Lo[j] = mid
				}
				progressed = true
			}
			// High direction: candidate slab between the midplane and h.Hi.
			if h.Hi[j] > l.Hi[j] {
				mid := (h.Hi[j] + l.Hi[j]) / 2
				slab.Lo[j] = mid
				prunable := tester.RegionPrunable(slab)
				slab.Lo[j] = h.Lo[j]
				iterations++
				if prunable {
					h.Hi[j], slab.Hi[j] = mid, mid
					shrinks++
				} else {
					l.Hi[j] = mid
				}
				progressed = true
			}
		}
		if !progressed {
			break
		}
	}
	return iterations, shrinks
}

// refMaxGap returns |h − l|_d: the largest per-direction distance between the
// boundaries of the bounding pair.
func refMaxGap(l, h geom.Rect) float64 {
	var m float64
	for j := range l.Lo {
		if g := l.Lo[j] - h.Lo[j]; g > m {
			m = g
		}
		if g := h.Hi[j] - l.Hi[j]; g > m {
			m = g
		}
	}
	return m
}
