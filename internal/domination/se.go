package domination

import (
	"math"
	"math/bits"
	"slices"

	"pvoronoi/internal/geom"
)

// Schedule says at which end of a face's gap a run expects the answer.
type Schedule int

const (
	// Bisect expects nothing: every probe halves its face's gap.
	Bisect Schedule = iota
	// FromH expects the answer at h — a run after an insert, whose old UBR is
	// on most faces still the answer. A face opens with a plate openPlate·Δ
	// thick at h and doubles it while probes succeed; the first failure sets l
	// and the face bisects what is left. A face stops as soon as its gap is
	// below Δ, so one whose opening plate fails is done after that one probe
	// with its h untouched (docs/ARCHITECTURE.md, "Warm starts").
	FromH
)

// openPlate, in units of Δ, is the first plate of a FromH face: thinner than
// Δ, so that its failure leaves a gap the loop is finished with.
const openPlate = 0.99

// ShrinkExpand is the SE loop (Algorithm 1, Steps 4–14): while some face of
// h is at least delta away from l, cut that gap — in half, or as sched says —
// and ask whether the plate between h's face and the cut is disjoint from
// I(Cset, o); if so h shrinks to the cut, otherwise l expands to it. l ⊆ h
// must hold on entry; both are updated in place. It returns the number of
// steps and how many of them shrank h (the rest expanded l).
//
// Successive plates of one face differ by a sliver, so each face remembers
// how its last plate was tiled and its next probe starts from that instead
// of from the C-set (docs/ARCHITECTURE.md, "Probing a face: cover reuse") —
// for this run only: the next call may bring an unrelated h.
// What the run cut from h is dominated by its witnesses (Witness).
func (t *Tester) ShrinkExpand(l, h geom.Rect, delta float64, sched Schedule) (iterations, shrinks int) {
	if delta <= 0 {
		delta = 1e-9 // Δ=0 would loop forever on irrational boundaries
	}
	for f := 0; f < 2*t.dim; f++ {
		t.resetFace(f)
	}
	clear(t.faces.witnesses)
	// q is the plate: h as (lo, hi) pairs, face f's own side at q[f], the
	// opposite side q[f^1] moved to the cut while f is probed. step[f] is the
	// signed thickness of f's next plate while it gallops from h, 0 once it
	// bisects.
	q, step, open := t.faces.plate, t.faces.step, 0.0
	if sched == FromH {
		open = openPlate * delta
	}
	for j := range h.Lo {
		q[2*j], q[2*j+1] = h.Lo[j], h.Hi[j]
		step[2*j], step[2*j+1] = open, -open
	}
	for maxGap(l, h) >= delta {
		for f := range q {
			j := f / 2
			hf, lf := &h.Lo[j], &l.Lo[j]
			if f&1 == 1 {
				hf, lf = &h.Hi[j], &l.Hi[j]
			}
			if gap := math.Abs(*hf - *lf); gap == 0 || sched == FromH && gap < delta {
				continue
			}
			mid, far := (*hf+*lf)/2, q[f^1]
			if g := *hf + step[f]; min(*hf, mid) < g && g < max(*hf, mid) {
				mid = g
			} else {
				step[f] = 0
			}
			t.axis, t.gapLo, t.gapHi = j, min(*hf, *lf), max(*hf, *lf)
			q[f^1] = mid
			prunable := t.probe(f)
			q[f^1] = far
			iterations++
			if prunable {
				*hf, q[f] = mid, mid
				shrinks++
				step[f] *= 2
			} else {
				*lf = mid
				step[f] = 0
			}
		}
	}
	return iterations, shrinks
}

// Witness reports whether candidate c (by C-set index) dominated a part of a
// plate the last ShrinkExpand shrank h over (docs/ARCHITECTURE.md,
// "Witnesses").
func (t *Tester) Witness(c int) bool {
	return t.faces != nil && t.faces.witnesses[c>>6]&(1<<(c&63)) != 0
}

// maxGap returns |h − l|_d: the largest per-direction distance between the
// boundaries of the bounding pair.
func maxGap(l, h geom.Rect) float64 {
	var m float64
	for j := range l.Lo {
		m = max(m, l.Lo[j]-h.Lo[j], h.Hi[j]-l.Hi[j])
	}
	return m
}

// leafCap bounds the leaves a face remembers; a tiling that outgrows it still
// decides its probe, but the face then starts over from the C-set.
const leafCap = 64

// cover is what a face remembers: the leaves that tiled the plate of its last
// probe, whose face-axis extent was [lo, hi]. After a failed probe some are
// open, and the replay starts at the one that failed.
type cover struct {
	lo, hi        float64
	leaves, start int
	overflow      bool
}

// faceMemory holds 2d+1 slots of leafCap leaves: one per face of h and a
// scratch slot in which a probe assembles the next tiling. A leaf is its box,
// the candidate that dominated it (-1: open) and, as a bit set over the
// C-set, the list the box was scanned from or is yet to be.
type faceMemory struct {
	covers []cover
	boxes  []float64
	doms   []int32
	sets   []uint64
	plate  []float64 // the plate being probed
	step   []float64 // per face, ShrinkExpand's gallop state
	// proved: the candidates that settled a part of the probed plate, added
	// to witnesses when the probe succeeds.
	proved, witnesses []uint64
	words             int // uint64s per set
	// onProbe, a test hook, sees the scratch slot after each probe.
	onProbe func(face int, prunable bool)
}

// leaf returns box, dominator and set of leaf i of a slot, each running on
// through the slot's later leaves.
func (t *Tester) leaf(slot, i int) ([]float64, []int32, []uint64) {
	e, m := slot*leafCap+i, t.faces
	return m.boxes[e*2*t.dim:], m.doms[e:], m.sets[e*m.words:]
}

// resetFace makes face f's cover one unbounded open leaf listing the whole
// C-set: its next probe is the plain recursion.
func (t *Tester) resetFace(f int) {
	if t.faces == nil {
		t.faces = new(faceMemory)
		t.faces.fit(t.dim, t.n)
	}
	t.faces.covers[f] = cover{leaves: 1}
	box, dom, set := t.leaf(f, 0)
	for j := 0; j < t.dim; j++ {
		box[2*j], box[2*j+1] = math.Inf(-1), math.Inf(1)
	}
	dom[0] = -1
	for c := 0; c < t.n; c++ {
		set[c>>6] |= 1 << (c & 63)
	}
}

// fit sizes m for d dimensions and n candidates, growing only storage that is
// too small, and clears the covers and the sets: resetFace ORs the C-set into
// a set without clearing it, so a stale bit would list a missing candidate.
func (m *faceMemory) fit(d, n int) {
	leaves, words := (2*d+1)*leafCap, (n+63)/64
	boxes := slices.Grow(m.boxes[:0], (leaves+2)*2*d)[:(leaves+2)*2*d]
	m.boxes, m.plate, m.step = boxes[:leaves*2*d], boxes[leaves*2*d:(leaves+1)*2*d], boxes[(leaves+1)*2*d:]
	m.covers = slices.Grow(m.covers[:0], 2*d+1)[:2*d+1]
	m.doms = slices.Grow(m.doms[:0], leaves)[:leaves]
	sets := slices.Grow(m.sets[:0], (leaves+2)*words)[:(leaves+2)*words]
	m.sets, m.proved, m.witnesses = sets[:leaves*words], sets[leaves*words:(leaves+1)*words], sets[(leaves+1)*words:]
	m.words = words
	clear(m.covers)
	clear(sets)
}

// probe decides whether the plate is covered by singly dominated boxes by
// replaying face f's tiling: each leaf is mapped onto the plate and its old
// dominator tried; if that fails, or the leaf was open, the recursion proves
// it alone from its own list. Once one has failed the rest are carried over.
func (t *Tester) probe(f int) bool {
	d, n, m := t.dim, t.n, t.faces
	c, s := &m.covers[f], &m.covers[2*d]
	*s = cover{lo: m.plate[2*t.axis], hi: m.plate[2*t.axis+1], start: -1}
	clear(m.proved)
	ok := true
	for k := 0; k < c.leaves; k++ {
		box, dom, set := t.leaf(f, (c.start+k)%c.leaves)
		depth := t.place(box, c.lo, c.hi)
		if depth < 0 {
			continue
		}
		if !ok || dom[0] >= 0 && t.dominates(dom[0]) {
			if ok {
				m.proved[dom[0]>>6] |= 1 << (dom[0] & 63)
			}
			if kept := t.keep(t.regions, dom[0]); kept != nil {
				copy(kept, set[:m.words])
			}
		} else {
			ok = t.prunable(0, n, t.expand(set, dom[0]), depth)
		}
	}
	if ok {
		for w, word := range m.proved {
			m.witnesses[w] |= word
		}
	}
	s.start = max(s.start, 0)
	if m.onProbe != nil {
		m.onProbe(f, ok)
	}
	if s.overflow {
		t.resetFace(f)
		return ok
	}
	*c = *s
	box, dom, set := t.leaf(f, 0)
	sbox, sdom, sset := t.leaf(2*d, 0)
	copy(box, sbox[:s.leaves*2*d])
	copy(dom, sdom[:s.leaves])
	copy(set, sset[:s.leaves*m.words])
	return ok
}

// place maps a remembered box onto the plate, into the recursion's level-0
// slot: lateral sides clipped (h only shrinks, so clipped leaves still tile),
// face-axis coordinates mapped from [a0, a1], the old plate's extent, onto the
// new one's (monotone, exact at the ends, one float per shared boundary, so
// mapped leaves tile too). It returns the depth a part of the box's lateral
// size has left in a fresh partition of the plate, -1 if nothing of the box
// is left.
func (t *Tester) place(box []float64, a0, a1 float64) int {
	q, ratio, lateral := t.faces.plate, 1.0, false
	for k := 0; k < t.dim; k++ {
		lo, hi, qlo, qhi := box[2*k], box[2*k+1], q[2*k], q[2*k+1]
		if k == t.axis {
			lo, hi = mapAxis(lo, a0, a1, qlo, qhi), mapAxis(hi, a0, a1, qlo, qhi)
		} else if lo, hi = max(lo, qlo), min(hi, qhi); lo < hi {
			ratio *= (qhi - qlo) / (hi - lo)
			lateral = true
		}
		if lo > hi || lo == hi && qlo < qhi {
			return -1
		}
		t.regions[2*k], t.regions[2*k+1] = lo, hi
	}
	if k := t.axis; !lateral && q[2*k] < q[2*k+1] {
		// A plate without lateral extent (d = 1) is only ever cut across.
		ratio = (q[2*k+1] - q[2*k]) / (t.regions[2*k+1] - t.regions[2*k])
	}
	return max(t.maxDepth-math.Ilogb(ratio), 0)
}

func mapAxis(x, a0, a1, q0, q1 float64) float64 {
	switch {
	case x <= a0:
		return q0
	case x >= a1:
		return q1
	}
	return min(q0+(x-a0)/(a1-a0)*(q1-q0), q1)
}

// dominates is the kernel's test of one candidate on the level-0 box.
func (t *Tester) dominates(c int32) bool {
	t.Tests++
	d := t.dim
	a, r := t.cand[int(c)*3*d:], t.regions
	var sum float64
	for j := 0; j < d; j++ {
		alo, ahi, tlo, thi := a[3*j], a[3*j+1], t.target[2*j], t.target[2*j+1]
		sum += max(geom.AxisMaxDist2(r[2*j], alo, ahi)-geom.AxisMinDist2(r[2*j], tlo, thi),
			geom.AxisMaxDist2(r[2*j+1], alo, ahi)-geom.AxisMinDist2(r[2*j+1], tlo, thi))
	}
	return sum < 0
}

// expand lists set in live[n:], dom first, and returns the list's end.
func (t *Tester) expand(set []uint64, dom int32) int {
	k := t.n
	if dom >= 0 {
		t.live[k] = dom
		k++
	}
	for w, word := range set[:t.faces.words] {
		for ; word != 0; word &= word - 1 {
			if c := int32(w<<6 + bits.TrailingZeros64(word)); c != dom {
				t.live[k] = c
				k++
			}
		}
	}
	return k
}

// keep adds a leaf to the tiling being assembled and returns its set to fill,
// nil if the slot is full. A probe's first open leaf is the part it failed at.
func (t *Tester) keep(r []float64, dom int32) []uint64 {
	s := &t.faces.covers[2*t.dim]
	if s.leaves == leafCap {
		s.overflow = true
		return nil
	}
	if dom < 0 && s.start < 0 {
		s.start = s.leaves
	}
	box, d, set := t.leaf(2*t.dim, s.leaves)
	copy(box, r[:2*t.dim])
	d[0] = dom
	s.leaves++
	return set
}

// keepList is keep for the recursion (a no-op outside ShrinkExpand): the set
// is the list the part was scanned from or, open, is left to be scanned from.
func (t *Tester) keepList(r []float64, dom int32, list []int32) {
	if t.axis < 0 {
		return
	}
	if dom >= 0 {
		t.faces.proved[dom>>6] |= 1 << (dom & 63)
	}
	if set := t.keep(r, dom); set != nil {
		clear(set[:t.faces.words])
		for _, c := range list {
			set[c>>6] |= 1 << (c & 63)
		}
	}
}
