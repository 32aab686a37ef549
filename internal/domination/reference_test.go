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
