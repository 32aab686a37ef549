// Package domination implements the spatial-domination machinery of
// Emrich et al. ("Boosting spatial pruning: on optimal pruning of MBRs",
// SIGMOD 2010) that the paper uses to reason about Possible Voronoi cells:
//
//   - Dominates(A, B, R): the exact decision whether every point of A is
//     closer than every point of B to every point of R, i.e. whether
//     R ⊆ dom(A, B).
//   - RegionPrunable: the domination-count estimation test of SE Step 9 —
//     whether a candidate region R is disjoint from the non-dominated
//     intersection I(Cset, o), decided by recursively partitioning R and
//     checking that every part is dominated by some candidate.
//
// The decision criterion is exact and O(d) per test: per dimension j, the
// difference maxdist_j(A, r)² − mindist_j(B, r)² is piecewise linear or
// convex in r with no interior maximum, so its maximum over R's extent in j
// is attained at one of the two endpoints (derivation: docs/ARCHITECTURE.md,
// "The domination criterion").
package domination

import (
	"math"
	"slices"

	"pvoronoi/internal/geom"
)

// Dominates reports whether rectangle a spatially dominates rectangle b with
// respect to region r: for all points x ∈ a, y ∈ b, z ∈ r, dist(x,z) < dist(y,z).
// Equivalently, r ⊆ dom(a, b) = {p : distmax(a,p) < distmin(b,p)}.
func Dominates(a, b, r geom.Rect) bool {
	var sum float64
	for j := range r.Lo {
		sum += axisMaxDiff(a.Lo[j], a.Hi[j], b.Lo[j], b.Hi[j], r.Lo[j], r.Hi[j])
	}
	return sum < 0
}

// axisMaxDiff returns max over rj ∈ {rlo, rhi} of
// maxdist(a, rj)² − mindist(b, rj)² for the 1-D intervals a=[alo,ahi],
// b=[blo,bhi]. Checking the two endpoints is exact (no interior maximum).
func axisMaxDiff(alo, ahi, blo, bhi, rlo, rhi float64) float64 {
	at := geom.AxisMaxDist2(rlo, alo, ahi) - geom.AxisMinDist2(rlo, blo, bhi)
	bt := geom.AxisMaxDist2(rhi, alo, ahi) - geom.AxisMinDist2(rhi, blo, bhi)
	return math.Max(at, bt)
}

// DomNonEmpty reports whether dom(a, b) ≠ ∅. By Lemma 2 of the paper this
// holds exactly when the uncertainty regions do not intersect.
func DomNonEmpty(a, b geom.Rect) bool {
	return !a.Intersects(b)
}

// CannotDominate reports (conservatively) that no point of r is dominated by
// a over b: for all p ∈ r, distmax(a,p) >= distmin(b,p). It lower-bounds
// maxdist(a,p)² − mindist(b,p)² by the separable per-dimension bound
// Σ_j min_p axisMaxDist²(a_j,p_j) − Σ_j max_p axisMinDist²(b_j,p_j); a
// non-negative bound proves uselessness. A false result is inconclusive.
// This is the filter that keeps the domination-count recursion from
// descending with candidates that cannot contribute.
func CannotDominate(a, b, r geom.Rect) bool {
	var lbMax, ubMin float64
	for j := range r.Lo {
		// min over p_j of axisMaxDist²(a_j, ·): axisMaxDist is V-shaped with
		// its minimum at a's midpoint; clamp the midpoint into r's extent.
		mid := (a.Lo[j] + a.Hi[j]) / 2
		p := mid
		if p < r.Lo[j] {
			p = r.Lo[j]
		} else if p > r.Hi[j] {
			p = r.Hi[j]
		}
		lbMax += geom.AxisMaxDist2(p, a.Lo[j], a.Hi[j])
		// max over p_j of axisMinDist²(b_j, ·): attained at an endpoint.
		lo := geom.AxisMinDist2(r.Lo[j], b.Lo[j], b.Hi[j])
		hi := geom.AxisMinDist2(r.Hi[j], b.Lo[j], b.Hi[j])
		ubMin += math.Max(lo, hi)
	}
	return lbMax >= ubMin
}

// PointDominated reports whether point p lies in dom(a, b):
// distmax(a, p) < distmin(b, p).
func PointDominated(a, b geom.Rect, p geom.Point) bool {
	return a.MaxDist2(p) < b.MinDist2(p)
}

// Tester performs domination-count estimation: given a candidate set (the
// C-set of the SE algorithm) and a target object region, it decides whether a
// query region R is entirely covered by the dominated union U(Cset, o) —
// i.e. whether R ∩ I(Cset, o) = ∅ (SE Step 9).
//
// The test recursively bisects R along its longest side. A part is settled
// when some single candidate dominates it. The depth bound of NewTester caps
// the recursion (the paper's granularity parameter m_max controls the same
// trade-off: finer partitioning detects more prunable regions but costs more
// domination tests). The test is conservative: it may answer "not prunable"
// for a prunable region, never the opposite.
//
// Tester is the flat form of "for each candidate: Dominates, else
// CannotDominate, recurse on the survivors": it makes the same decisions in
// the same order from the same floating-point operations, but owns all its
// storage, so a call allocates nothing (docs/ARCHITECTURE.md, "UBR
// computation", describes the layout). ShrinkExpand drives the same recursion
// through a per-face memory of earlier proofs (se.go). A Tester is not safe
// for concurrent use.
type Tester struct {
	// Tests counts individual domination decisions (one per candidate
	// examined per region part), for the harness's cost accounting
	// (Fig. 10(e)).
	Tests int64

	dim      int
	n        int // |C|
	maxDepth int
	// cand packs the C-set: per candidate, per dimension, (lo, hi, midpoint).
	cand []float64
	// target is u(o): per dimension, (lo, hi).
	target []float64
	// regions is the coordinate stack of the recursion: level k holds the
	// part tested at depth k as (lo, hi) per dimension; level 0 is the
	// caller's region.
	regions []float64
	// terms holds, for the part being scanned, per dimension (lo, hi,
	// mindist²(target, lo), mindist²(target, hi), and the extent the filter
	// clamps to) — everything the per-candidate loop needs that does not
	// depend on the candidate.
	terms []float64
	// live is the index stack: [0, n) lists the whole C-set, [n, 2n) is
	// where a face probe puts the list it restarts from, and each recursion
	// level appends the candidates that survive its part, so a level's live
	// set is a contiguous range its two children share.
	live []int32
	// scan is the candidate loop for the tester's dimension (scanFor).
	scan scanFunc

	// axis is the face axis of the plate ShrinkExpand is probing, -1 in the
	// stateless RegionPrunable; on it the filter looks at the face's whole
	// gap [gapLo, gapHi] instead of the part's extent.
	axis         int
	gapLo, gapHi float64
	faces        *faceMemory // ShrinkExpand's state, built by its first run
}

// NewTester builds a Tester over the given candidate regions; maxDepth
// bounds the recursive bisection (depth m allows up to 2^m parts; the paper's
// default m_max=10). The rectangles are copied, so the caller may reuse them.
func NewTester(candidates []geom.Rect, target geom.Rect, maxDepth int) *Tester {
	return new(Tester).Reset(candidates, target, maxDepth)
}

// Reset makes t the tester NewTester(candidates, target, maxDepth) builds,
// keeping its storage where it is large enough: a reset tester decides every
// probe, counts every test and tiles every face exactly like a fresh one.
func (t *Tester) Reset(candidates []geom.Rect, target geom.Rect, maxDepth int) *Tester {
	maxDepth = max(maxDepth, 0)
	d, n := target.Dim(), len(candidates)
	size := n*3*d + 2*d + (maxDepth+1)*2*d + 6*d
	buf := slices.Grow(t.cand[:0], size)[:size] // cand heads the buffer
	t.Tests, t.dim, t.n, t.maxDepth, t.scan = 0, d, n, maxDepth, scanFor(d)
	t.live = slices.Grow(t.live[:0], n*(maxDepth+3))[:n*(maxDepth+3)]
	t.cand, buf = buf[:n*3*d], buf[n*3*d:]
	t.target, buf = buf[:2*d], buf[2*d:]
	t.regions, t.terms = buf[:(maxDepth+1)*2*d], buf[(maxDepth+1)*2*d:]
	for i, c := range candidates {
		t.live[i] = int32(i)
		a := t.cand[i*3*d:]
		for j := 0; j < d; j++ {
			a[3*j], a[3*j+1], a[3*j+2] = c.Lo[j], c.Hi[j], (c.Lo[j]+c.Hi[j])/2
		}
	}
	for j := 0; j < d; j++ {
		t.target[2*j], t.target[2*j+1] = target.Lo[j], target.Hi[j]
	}
	if t.faces != nil {
		t.faces.fit(d, n)
	}
	return t
}

// RegionPrunable reports whether region r is disjoint from I(Cset, o), i.e.
// every point of r is dominated by at least one candidate. A true result is
// definitive; a false result may be a false negative at finite depth.
//
// Candidates are scanned in the caller's order; the C-set strategies supply
// them nearest-first from the target, which makes the short-circuiting scan
// find slab dominators early without any per-call reordering.
func (t *Tester) RegionPrunable(r geom.Rect) bool {
	t.axis = -1
	for j := 0; j < t.dim; j++ {
		t.regions[2*j], t.regions[2*j+1] = r.Lo[j], r.Hi[j]
	}
	return t.prunable(0, 0, t.n, t.maxDepth)
}

// prunable decides the part at recursion level `level` against the
// candidates live[from:to], bisecting at most depth more times; survivors
// are stacked from live[to] on.
func (t *Tester) prunable(level, from, to, depth int) bool {
	d := t.dim
	r := t.regions[level*2*d : (level+1)*2*d]

	// Target-only terms, once per part: Dominates subtracts mindist² of the
	// target at r's two endpoints, CannotDominate sums their maxima over the
	// extent [flo, fhi] the filter looks at.
	var ubMin float64
	for j := 0; j < d; j++ {
		lo, hi := r[2*j], r[2*j+1]
		tlo := geom.AxisMinDist2(lo, t.target[2*j], t.target[2*j+1])
		thi := geom.AxisMinDist2(hi, t.target[2*j], t.target[2*j+1])
		tj := t.terms[6*j : 6*j+6]
		tj[0], tj[1], tj[2], tj[3], tj[4], tj[5] = lo, hi, tlo, thi, lo, hi
		if j == t.axis {
			tj[4], tj[5] = t.gapLo, t.gapHi
			tlo = geom.AxisMinDist2(t.gapLo, t.target[2*j], t.target[2*j+1])
			thi = geom.AxisMinDist2(t.gapHi, t.target[2*j], t.target[2*j+1])
		}
		ubMin += max(tlo, thi)
	}

	// Filter to candidates that can still dominate some part of r: a
	// candidate proven unable to dominate any point of r stays useless for
	// every sub-part, so drop it before recursing. Most slabs either find a
	// single dominator here or lose all candidates, terminating early.
	live := t.live
	hit, top := t.scan(t, from, to, ubMin)
	if hit >= 0 {
		t.Tests += int64(hit - from + 1)
		t.keepList(r, live[hit], live[from:to])
		return true
	}
	t.Tests += int64(to - from)
	if depth == 0 || top == to {
		t.keepList(r, -1, live[to:top])
		return false
	}

	// Bisect r along its longest side into the next level's slot: the low
	// half first, then the same slot rewritten as the high half.
	best := 0
	for j := 1; j < d; j++ {
		if r[2*j+1]-r[2*j] > r[2*best+1]-r[2*best] {
			best = j
		}
	}
	mid := (r[2*best] + r[2*best+1]) / 2
	half := t.regions[(level+1)*2*d : (level+2)*2*d]
	copy(half, r)
	half[2*best+1] = mid
	ok := t.prunable(level+1, to, top, depth-1)
	half[2*best], half[2*best+1] = mid, r[2*best+1]
	if !ok {
		t.keepList(half, -1, live[to:top]) // the half the failure leaves open
		return false
	}
	return t.prunable(level+1, to, top, depth-1)
}

// The scans are prunable's candidate loop. Each tests live[from:to] in order
// against the part whose terms t.terms holds, and returns the index of the
// first candidate that dominates the part (-1 if none) and the end of the
// survivors it stacked from live[to] on: the candidates before the hit that
// the filter could not drop. Per candidate, margin is Dominates' sum negated,
// Σ_j of the smaller over r's endpoints of mindist²(target) − maxdist²
// (candidate), so a positive margin is a dominator; lbMax is CannotDominate's
// Σ_j maxdist² at the candidate's midpoint clamped into the filter's extent.
// Both add the dimensions in order. scan2 and scan3 are scanN with the
// dimension loop unrolled and the part's terms held in locals
// (TestScansMatchGeneric).
type scanFunc func(t *Tester, from, to int, ubMin float64) (hit, top int)

// scanFor returns the scan for dimension d.
func scanFor(d int) scanFunc {
	switch d {
	case 2:
		return (*Tester).scan2
	case 3:
		return (*Tester).scan3
	}
	return (*Tester).scanN
}

// far2 is geom.AxisMaxDist2 for lo ≤ hi, without the abs and the max: the
// smaller of lo − x and x − hi is minus the distance to the farther endpoint
// (at most one of the two is positive, and a float subtraction's sign is
// symmetric), and the square drops the sign. The margin's min(a, b) is
// likewise −max(−a, −b) of the sum's terms, and a sum of negated terms is the
// negated sum, so margin > 0 exactly where sum < 0 (TestKernelIdentities).
func far2(x, lo, hi float64) float64 {
	m := min(lo-x, x-hi)
	return m * m
}

// clamp is CannotDominate's midpoint clamp for lo ≤ hi without its branches;
// it differs from the if/else clamp only in the sign of a zero, which far2
// squares away.
func clamp(p, lo, hi float64) float64 {
	return min(max(p, lo), hi)
}

// A scan stores each candidate at top before the filter decides on it and
// keeps it by advancing top: the slot is the next survivor's either way, and
// lies inside the range a level's survivors may fill.

func (t *Tester) scanN(from, to int, ubMin float64) (hit, top int) {
	d, live, q := t.dim, t.live, t.terms
	top = to
	for i := from; i < to; i++ {
		c := live[i]
		a := t.cand[int(c)*3*d : (int(c)+1)*3*d]
		var margin float64
		for j := 0; j < d; j++ {
			aj, qj := a[3*j:3*j+3:3*j+3], q[6*j:6*j+6:6*j+6]
			margin += min(qj[2]-far2(qj[0], aj[0], aj[1]), qj[3]-far2(qj[1], aj[0], aj[1]))
		}
		if margin > 0 {
			return i, top
		}
		var lbMax float64
		for j := 0; j < d; j++ {
			aj, qj := a[3*j:3*j+3:3*j+3], q[6*j:6*j+6:6*j+6]
			lbMax += far2(clamp(aj[2], qj[4], qj[5]), aj[0], aj[1])
		}
		live[top] = c
		if !(lbMax >= ubMin) {
			top++
		}
	}
	return -1, top
}

func (t *Tester) scan2(from, to int, ubMin float64) (hit, top int) {
	q := (*[12]float64)(t.terms)
	lo0, hi0, tlo0, thi0, flo0, fhi0 := q[0], q[1], q[2], q[3], q[4], q[5]
	lo1, hi1, tlo1, thi1, flo1, fhi1 := q[6], q[7], q[8], q[9], q[10], q[11]
	live, cand := t.live, t.cand
	top = to
	for i := from; i < to; i++ {
		c := live[i]
		a := (*[6]float64)(cand[int(c)*6:])
		margin := min(tlo0-far2(lo0, a[0], a[1]), thi0-far2(hi0, a[0], a[1])) +
			min(tlo1-far2(lo1, a[3], a[4]), thi1-far2(hi1, a[3], a[4]))
		if margin > 0 {
			return i, top
		}
		lbMax := far2(clamp(a[2], flo0, fhi0), a[0], a[1]) +
			far2(clamp(a[5], flo1, fhi1), a[3], a[4])
		live[top] = c
		if !(lbMax >= ubMin) {
			top++
		}
	}
	return -1, top
}

func (t *Tester) scan3(from, to int, ubMin float64) (hit, top int) {
	q := (*[18]float64)(t.terms)
	lo0, hi0, tlo0, thi0, flo0, fhi0 := q[0], q[1], q[2], q[3], q[4], q[5]
	lo1, hi1, tlo1, thi1, flo1, fhi1 := q[6], q[7], q[8], q[9], q[10], q[11]
	lo2, hi2, tlo2, thi2, flo2, fhi2 := q[12], q[13], q[14], q[15], q[16], q[17]
	live, cand := t.live, t.cand
	top = to
	for i := from; i < to; i++ {
		c := live[i]
		a := (*[9]float64)(cand[int(c)*9:])
		margin := min(tlo0-far2(lo0, a[0], a[1]), thi0-far2(hi0, a[0], a[1])) +
			min(tlo1-far2(lo1, a[3], a[4]), thi1-far2(hi1, a[3], a[4])) +
			min(tlo2-far2(lo2, a[6], a[7]), thi2-far2(hi2, a[6], a[7]))
		if margin > 0 {
			return i, top
		}
		lbMax := far2(clamp(a[2], flo0, fhi0), a[0], a[1]) +
			far2(clamp(a[5], flo1, fhi1), a[3], a[4]) +
			far2(clamp(a[8], flo2, fhi2), a[6], a[7])
		live[top] = c
		if !(lbMax >= ubMin) {
			top++
		}
	}
	return -1, top
}
