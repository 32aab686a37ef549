package core

import (
	"pvoronoi/internal/domination"
	"pvoronoi/internal/geom"
	"pvoronoi/internal/rtree"
	"pvoronoi/internal/uncertain"
)

// Refinement re-runs SE for the fattest rows with the two knobs that limit how
// far SE can shrink a UBR in a dense neighbourhood escalated: refineDepthBoost
// more levels of domination recursion and refineCSetFactor times every C-set
// quota.
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
	if !storedUBR.ContainsRect(o.Region) {
		// Defensive: a stored UBR always contains u(o); if external input
		// violates that, refuse to shrink rather than clip V(o).
		return storedUBR, Stats{Refine: RefineStats{Rows: 1}}
	}
	ubr, st := computeUBRBounds(db, tree, o, escalated(opts), o.Region.Clone(), storedUBR.Clone(), domination.Bisect)
	return ubr, Stats{Refine: RefineStats{Rows: 1, CSetSize: st.CSetSize, Time: st.CSetTime + st.UBRTime,
		Iterations: st.Iterations, DominationTests: st.DominationTests, Shrinks: st.Shrinks}}
}
