package core

import (
	"time"

	"pvoronoi/internal/domination"
	"pvoronoi/internal/geom"
	"pvoronoi/internal/rtree"
	"pvoronoi/internal/uncertain"
)

// The compositions below are the warm and escalated runs as the index
// composed them before the C-set was chosen apart from the run: each browses
// for its C-set and runs SE once. The tests and the golden hashes hold Run
// to them.

// browseRun chooses o's C-set with opts and runs SE from (l, h) on sched.
func browseRun(db *uncertain.DB, tree *rtree.Tree, o *uncertain.Object, opts Options, l, h geom.Rect, sched domination.Schedule) (geom.Rect, Stats) {
	t0 := time.Now()
	cset := ChooseCSet(nil, db, tree, o, opts)
	csetTime := time.Since(t0)
	ubr, _, st := Run(cset, o.Region, l, h, sched, opts.Delta, opts.MaxDepth, nil)
	st.CSetTime = csetTime
	return ubr, st
}

// computeUBRAfterDelete is the delete's warm run: l = the old UBR, h = its
// union with the victim's, bisecting.
func computeUBRAfterDelete(db *uncertain.DB, tree *rtree.Tree, o *uncertain.Object, oldUBR, victimUBR geom.Rect, opts Options) (geom.Rect, Stats) {
	return browseRun(db, tree, o, opts, oldUBR.Clone(), oldUBR.Union(victimUBR), domination.Bisect)
}

// computeUBRAfterInsert is the insert's warm run: l = u(o), h = the old UBR,
// probing from h; a cold run when the old UBR does not hold u(o).
func computeUBRAfterInsert(db *uncertain.DB, tree *rtree.Tree, o *uncertain.Object, oldUBR geom.Rect, opts Options) (geom.Rect, Stats) {
	if !oldUBR.ContainsRect(o.Region) {
		return ComputeUBR(db, tree, o, opts)
	}
	return browseRun(db, tree, o, opts, o.Region.Clone(), oldUBR.Clone(), domination.FromH)
}

// refineUBR is the escalated re-run after a cold run: bisecting from the
// stored UBR, its work in Stats.Refine.
func refineUBR(db *uncertain.DB, tree *rtree.Tree, o *uncertain.Object, storedUBR geom.Rect, opts Options) (geom.Rect, Stats) {
	return escalate(db, tree, o, o.Region, storedUBR, opts, domination.Bisect)
}

// refineUBRFromH is the escalated re-run after a warm one: probing from the
// stored UBR, above the floor l the warm run kept.
func refineUBRFromH(db *uncertain.DB, tree *rtree.Tree, o *uncertain.Object, l, storedUBR geom.Rect, opts Options) (geom.Rect, Stats) {
	return escalate(db, tree, o, l, storedUBR, opts, domination.FromH)
}

func escalate(db *uncertain.DB, tree *rtree.Tree, o *uncertain.Object, l, storedUBR geom.Rect, opts Options, sched domination.Schedule) (geom.Rect, Stats) {
	if !storedUBR.ContainsRect(l) {
		return storedUBR, Stats{Refine: RefineStats{Rows: 1}}
	}
	ubr, st := browseRun(db, tree, o, Escalated(opts), l.Clone(), storedUBR.Clone(), sched)
	return ubr, Stats{Refine: RefineStats{Rows: 1, CSetSize: st.CSetSize, Time: st.CSetTime + st.UBRTime,
		Iterations: st.Iterations, DominationTests: st.DominationTests, Shrinks: st.Shrinks}}
}

// regions lists the regions of a C-set, as the domination tester takes them.
func regions(cset []rtree.Item) []geom.Rect {
	rs := make([]geom.Rect, len(cset))
	for i, c := range cset {
		rs[i] = c.Rect
	}
	return rs
}
