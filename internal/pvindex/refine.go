package pvindex

import (
	"maps"
	"math"
	"slices"

	"pvoronoi/internal/core"
	"pvoronoi/internal/geom"
	"pvoronoi/internal/uncertain"
)

// Refinement spends extra SE work on fat rows, decided per row inside the SE
// job that computes the UBR: a row whose UBR is large against the C-set that
// bounds it re-runs SE at once with a deeper recursion and a larger C-set
// (core.RefineUBR). Refined UBRs remain supersets of the true cell, so every
// query stays exact; the payoff is tighter UBRs alone — fewer Step-1
// candidates over-fetched by a PNNQ near a hub, and fewer rows a delete batch
// recomputes. No extension query depends on it: they all retrieve over
// uncertainty regions.

// refineFactor is the fatness rule's constant: an SE run's row is fat when
// vol(UBR)·|C| ≥ refineFactor·2^d·vol(C-box), C its C-set and C-box the
// bounding box of C's regions. A row whose box is much larger than its share
// of the C-set's box is where the base run's quotas and depth ran out. It is
// a variable only so that in-package tests can escalate every row (0) or
// none (+Inf).
var refineFactor = 8.0

// fat applies the rule to an SE run that returned ubr with stats st. An
// empty C-set never escalates (nothing a larger quota could cut with); a
// zero-volume C-box is fat at every finite factor and at none at +Inf.
func fat(ubr geom.Rect, st core.Stats) bool {
	return st.CSetSize > 0 &&
		ubr.Volume()*float64(st.CSetSize) >= refineFactor*math.Ldexp(st.CSetVolume, ubr.Dim())
}

// se is every SE job of the build and the write path: a cold run for o over
// w's database when prev is the zero Rect, else a warm one from o's UBR prev —
// after inserts (victim the zero Rect) or after the delete of a row whose UBR
// was victim. A fat result gets the escalated re-run at once: bisecting after
// a cold run, probing from h after a warm one (core.RefineUBRFromH: a warm
// result already sits near the cell) and above the floor the warm run kept —
// u(o), or the old UBR after a delete. A warm run that returned prev
// unchanged is not escalated. The re-run's work lands in Stats.Refine and the
// lifetime counters. It reads only w's database and region tree, so jobs fan
// out.
func (w *working) se(o *uncertain.Object, prev, victim geom.Rect) (geom.Rect, core.Stats) {
	opts := w.ix.cfg.SE
	var ubr geom.Rect
	var st core.Stats
	floor := o.Region
	switch {
	case prev.Lo == nil:
		ubr, st = core.ComputeUBR(w.db, w.regionTree, o, opts)
	case victim.Lo == nil:
		ubr, st = core.ComputeUBRAfterInsert(w.db, w.regionTree, o, prev, opts)
	default:
		ubr, st = core.ComputeUBRAfterDelete(w.db, w.regionTree, o, prev, victim, opts)
		floor = prev
	}
	if (prev.Lo != nil && ubr.Equal(prev)) || !fat(ubr, st) {
		return ubr, st
	}
	var refined geom.Rect
	var rst core.Stats
	if prev.Lo == nil {
		refined, rst = core.RefineUBR(w.db, w.regionTree, o, ubr, opts)
	} else {
		refined, rst = core.RefineUBRFromH(w.db, w.regionTree, o, floor, ubr, opts)
	}
	if refined.Equal(ubr) {
		rst.Refine.Unchanged++
	}
	st.Add(rst)
	w.ix.refRows.Add(int64(rst.Refine.Rows))
	w.ix.refUnchanged.Add(int64(rst.Refine.Unchanged))
	w.ix.refBudget.Add(rst.Refine.DominationTests)
	return refined, st
}

// RefineCounters are the refinement subsystem's lifetime totals.
type RefineCounters struct {
	// RowsRefined counts rows whose UBR an escalated SE run recomputed.
	RowsRefined int64
	// RowsUnchanged counts refined rows whose UBR came back bit-identical:
	// refinement spent on a row it could not tighten.
	RowsUnchanged int64
	// BudgetSpent counts domination decisions consumed by refinement's SE
	// runs — the subsystem's work unit.
	BudgetSpent int64
}

// RefineCounters returns the refinement subsystem's lifetime totals.
func (ix *Index) RefineCounters() RefineCounters {
	return RefineCounters{
		RowsRefined:   ix.refRows.Load(),
		RowsUnchanged: ix.refUnchanged.Load(),
		BudgetSpent:   ix.refBudget.Load(),
	}
}

// AdjacencyStats is the UBR-intersection degree distribution over the
// current version's rows, computed on demand: one octree window per row.
type AdjacencyStats struct {
	// Rows is the number of objects.
	Rows int
	// RowsRecomputed and RowsPatched are always 0: no graph is maintained.
	// They are kept only because benchmark/layers.go still reads them
	// (ROADMAP item 2).
	RowsRecomputed int64
	RowsPatched    int64
	// DegreeP50 and DegreeMax summarize the UBR-intersection degrees.
	DegreeP50 int
	DegreeMax int
}

// Adjacency computes the current version's degree distribution. It costs
// one octree window per object, so it is a diagnostic, not a gauge to poll.
func (ix *Index) Adjacency() AdjacencyStats {
	v := ix.pin()
	defer ix.unpin(v)
	degs := slices.Sorted(maps.Values(v.windowDegrees()))
	st := AdjacencyStats{Rows: len(degs)}
	if len(degs) > 0 {
		st.DegreeP50, st.DegreeMax = degs[(len(degs)-1)/2], degs[len(degs)-1]
	}
	return st
}

// windowDegrees returns each row's degree, the other stored UBRs that meet
// its own, all of which one octree window over the UBR holds (two meeting
// UBRs share a point, hence a leaf). Unreadable rows are left out.
func (v *version) windowDegrees() map[uint32]int {
	ubrs := make(map[uint32]geom.Rect, v.db.Len())
	for _, o := range v.db.Objects() {
		if ubr, ok := v.ubr(o.ID); ok {
			ubrs[uint32(o.ID)] = ubr
		}
	}
	degs := make(map[uint32]int, len(ubrs))
	for id, ubr := range ubrs {
		win, err := v.primary.RangeIDs(ubr)
		if err != nil {
			continue
		}
		n := 0
		for nid := range win {
			if nubr, ok := ubrs[nid]; ok && nid != id && nubr.Intersects(ubr) {
				n++
			}
		}
		degs[id] = n
	}
	return degs
}
