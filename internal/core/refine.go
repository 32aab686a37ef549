package core

import (
	"time"

	"pvoronoi/internal/domination"
	"pvoronoi/internal/geom"
	"pvoronoi/internal/rtree"
	"pvoronoi/internal/uncertain"
)

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
	rf.ws.cset = rf.ws.chooseCSet(rf.ws.cset[:0], db, tree, o, opts)
	rf.csetTime = time.Since(t0)
	rf.csetSize = len(rf.ws.cset)
	if rf.csetSize > 0 {
		rf.tester = rf.ws.tester.Reset(rf.ws.cset, o.Region, opts.MaxDepth)
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

// Prunable reports whether region r provably contains no point of the
// object's possible Voronoi cell V(o). Conservative like the tester it
// wraps: a false result is inconclusive, a true result is definitive. With
// an empty C-set nothing is provable and every region is kept.
func (rf *Refiner) Prunable(r geom.Rect) bool {
	if rf.tester == nil {
		return false
	}
	return rf.tester.RegionPrunable(r)
}

// Tests returns the cumulative domination decisions the refiner has spent
// (SE bisection plus any clip-walk probes through Prunable).
func (rf *Refiner) Tests() int64 {
	if rf.tester == nil {
		return 0
	}
	return rf.tester.Tests
}
