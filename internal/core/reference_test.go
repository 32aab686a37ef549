package core

import (
	"time"

	"pvoronoi/internal/domination"
	"pvoronoi/internal/geom"
	"pvoronoi/internal/rtree"
	"pvoronoi/internal/uncertain"
)

// refShrinkExpand is the SE loop as it stood before the tester remembered
// anything between probes, verbatim: every plate is proved from scratch by
// the stateless RegionPrunable. The golden guards measure the cover-reusing
// loop's tightness and test count against it.
func refShrinkExpand(tester *domination.Tester, l, h geom.Rect, delta float64) (iterations, shrinks int) {
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

// The refinement pass as it stood while the octree clip walk shared its
// tester, verbatim apart from the clip-only Prunable: a Refiner held the
// escalated C-set and tester between the SE re-run and the clip walk.
// TestRefineUBRMatchesRefiner holds RefineUBR to it bit for bit.

// RefineOptions escalates the base SE parameters for the budget-aware
// refinement pass. The base pass runs at the paper's Table I defaults for
// every object; refinement re-runs only the fattest rows with a deeper
// domination-count recursion and a larger C-set, the two knobs that limit
// how far SE can shrink a UBR in a dense neighborhood.
type RefineOptions struct {
	// DepthBoost is added to Options.MaxDepth for the refinement tester
	// (values <= 0 leave the depth unchanged).
	DepthBoost int
	// CSetFactor multiplies K, KPartition and KGlobal for the refinement
	// C-set selection (values <= 1 leave them unchanged).
	CSetFactor int
}

// Escalate returns the base SE options with the refinement escalation
// applied.
func Escalate(base Options, r RefineOptions) Options {
	out := base
	if r.DepthBoost > 0 {
		out.MaxDepth += r.DepthBoost
	}
	if r.CSetFactor > 1 {
		out.K *= r.CSetFactor
		out.KPartition *= r.CSetFactor
		out.KGlobal *= r.CSetFactor
	}
	return out
}

// Refiner holds the escalated C-set and domination tester of one object's
// refinement: the SE re-run and the octree clip walk share the same tester,
// so the clip walk's prunability decisions are exactly as conservative as
// SE's (a region reported prunable provably contains no point of V(o)).
type Refiner struct {
	o      *uncertain.Object
	opts   Options
	ws     *workspace
	tester *domination.Tester // the workspace's, nil when the C-set is empty

	csetSize int
	csetTime time.Duration
}

// NewRefiner selects the escalated C-set for o and builds its domination
// tester in a pooled workspace, which it holds until Release. The tree must
// index the uncertainty regions of all objects; the call is read-only over db
// and tree, so refiners for different objects may be built and used
// concurrently.
func NewRefiner(db *uncertain.DB, tree *rtree.Tree, o *uncertain.Object, base Options, r RefineOptions) *Refiner {
	opts := Escalate(base, r)
	rf := &Refiner{o: o, opts: opts, ws: workspaces.Get().(*workspace)}
	t0 := time.Now()
	rf.ws.items = rf.ws.chooseCSet(rf.ws.items[:0], db, tree, o, opts)
	rf.csetTime = time.Since(t0)
	rf.csetSize = len(rf.ws.items)
	if rf.csetSize > 0 {
		rf.tester = rf.ws.tester.Reset(regions(rf.ws.items), o.Region, opts.MaxDepth)
	}
	return rf
}

// Release returns the refiner's workspace to the pool; the refiner must not
// be used afterwards.
func (rf *Refiner) Release() {
	rf.ws.release()
	rf.ws, rf.tester = nil, nil
}

// Refine re-runs the SE bisection for the refiner's object with the
// escalated tester, warm-started from the stored UBR as the upper bound:
// refinement only ever shrinks, so h = oldUBR is sound (the stored UBR is a
// superset of V(o), and every shrink step removes only provably dominated
// slabs). The returned stats carry the work in the Refine fields, leaving
// the base counters zero.
func (rf *Refiner) Refine(oldUBR geom.Rect) (ubr geom.Rect, st Stats) {
	st.Refine.Rows = 1
	st.Refine.CSetSize = rf.csetSize
	t0 := time.Now()
	defer func() { st.Refine.Time = rf.csetTime + time.Since(t0) }()

	h := oldUBR.Clone()
	if !h.ContainsRect(rf.o.Region) {
		// Defensive: a stored UBR always contains u(o); if external input
		// violates that, refuse to shrink rather than clip V(o).
		return oldUBR, st
	}
	if rf.tester == nil {
		return h, st
	}
	testsBefore := rf.tester.Tests

	st.Refine.Iterations, st.Refine.Shrinks = rf.tester.ShrinkExpand(rf.o.Region.Clone(), h, rf.opts.Delta, domination.Bisect)
	st.Refine.DominationTests = rf.tester.Tests - testsBefore
	return h, st
}

// Tests returns the cumulative domination decisions the refiner has spent
// (SE bisection plus any clip-walk probes through Prunable).
func (rf *Refiner) Tests() int64 {
	if rf.tester == nil {
		return 0
	}
	return rf.tester.Tests
}
