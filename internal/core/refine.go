package core

import (
	"pvoronoi/internal/domination"
	"pvoronoi/internal/geom"
	"pvoronoi/internal/rtree"
	"pvoronoi/internal/uncertain"
)

// Refinement re-runs SE for a fat row with the two knobs that limit how far SE
// can shrink a UBR in a dense neighbourhood escalated: refineDepthBoost more
// levels of domination recursion and refineCSetFactor times every C-set quota.
const (
	refineDepthBoost = 4
	refineCSetFactor = 4
)

// escalated returns the base SE options with refinement's escalation applied.
func escalated(base Options) Options {
	base.MaxDepth += refineDepthBoost
	base.K *= refineCSetFactor
	base.KPartition *= refineCSetFactor
	base.KGlobal *= refineCSetFactor
	return base
}

// RefineUBR re-runs SE for o with the escalated options, warm-started from its
// stored UBR as the upper bound: refinement only ever shrinks, and h = storedUBR
// is sound because a stored UBR contains V(o). The work is reported in
// Stats.Refine; the base counters stay zero.
func RefineUBR(db *uncertain.DB, tree *rtree.Tree, o *uncertain.Object, storedUBR geom.Rect, opts Options) (geom.Rect, Stats) {
	return refineUBR(db, tree, o, o.Region, storedUBR, opts, domination.Bisect)
}

// RefineUBRFromH is RefineUBR for the result of a warm SE run: that UBR
// already sits near the cell, so the escalated run probes from it
// (domination.FromH) instead of bisecting every gap, and above the floor l
// the warm run kept — u(o) after inserts, the old UBR after a delete.
func RefineUBRFromH(db *uncertain.DB, tree *rtree.Tree, o *uncertain.Object, l, storedUBR geom.Rect, opts Options) (geom.Rect, Stats) {
	return refineUBR(db, tree, o, l, storedUBR, opts, domination.FromH)
}

func refineUBR(db *uncertain.DB, tree *rtree.Tree, o *uncertain.Object, l, storedUBR geom.Rect, opts Options, sched domination.Schedule) (geom.Rect, Stats) {
	if !storedUBR.ContainsRect(l) {
		// Defensive: a stored UBR always contains u(o), and a warm result its
		// floor; if external input violates that, refuse to shrink rather
		// than clip V(o).
		return storedUBR, Stats{Refine: RefineStats{Rows: 1}}
	}
	ubr, st := computeUBRBounds(db, tree, o, escalated(opts), l.Clone(), storedUBR.Clone(), sched)
	return ubr, Stats{Refine: RefineStats{Rows: 1, CSetSize: st.CSetSize, Time: st.CSetTime + st.UBRTime,
		Iterations: st.Iterations, DominationTests: st.DominationTests, Shrinks: st.Shrinks}}
}
