package pvindex

import (
	"cmp"
	"maps"
	"math"
	"slices"
	"sync"
	"time"

	"pvoronoi/internal/core"
	"pvoronoi/internal/domination"
	"pvoronoi/internal/geom"
	"pvoronoi/internal/rtree"
	"pvoronoi/internal/uncertain"
)

// Refinement spends extra SE work on fat rows, decided per row inside the SE
// job that computes the UBR: a row whose UBR is large against the C-set that
// bounds it re-runs SE at once with a deeper recursion and a larger C-set
// (core.Escalated). Refined UBRs remain supersets of the true cell, so every
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

// seStart says where an SE job starts: the zero value is a cold run, from
// l = u(o) and h = the domain over a browsed C-set — a build row, and a
// newcomer's, which is a build row over the database it joins; with prev
// set, a warm run over W(o) (has) ∪ extra for a row an update affects: from
// l = u(o) and h = prev after inserts (extra: the newcomers, alone first),
// from l = prev and h = prev ∪ victimUBR after a delete (extra: W(victim)) —
// docs/ARCHITECTURE.md, "Witnesses".
type seStart struct {
	prev, victimUBR geom.Rect
	has, extra      []uint32
	victim          uint32
}

// seScratch is an SE job's reusable C-set (IDs, items, sort keys) and
// witnesses.
type seScratch struct {
	ids  []uint32
	cset []rtree.Item
	keys []memberKey
	wit  []uint32
}

// memberKey is a warm C-set member with its sort key, MinDist² from the
// target's center.
type memberKey struct {
	d2 float64
	id uint32
	m  *uncertain.Object
}

var seScratches = sync.Pool{New: func() any { return new(seScratch) }}

// se is every SE job of the build and the write path — build rows and
// newcomers cold, affected rows warm: it returns o's UBR, its witness list
// (ascending; from.has if the newcomers cut nothing) and stats.
// A warm C-set past the cap makes it a cold run; a cold run whose witnesses
// pass the cap runs again over the nearest cap of them. A fat result gets the
// escalated re-run over an escalated browse at once — bisecting after a cold
// run, probing from h above the floor the warm run kept after a warm one —
// unless a warm run returned prev unchanged; its witnesses join the list, or,
// past the cap, the re-run is dropped. Its work lands in Stats.Refine and the
// lifetime counters. It reads only w's database and region tree, so jobs fan out.
func (w *working) se(o *uncertain.Object, from seStart) (geom.Rect, []uint32, core.Stats) {
	sc := seScratches.Get().(*seScratch)
	defer func() {
		clear(sc.cset)
		clear(sc.keys)
		seScratches.Put(sc)
	}()
	opts, limit := w.ix.cfg.SE, witnessCap(o.Dim())
	insert := from.victimUBR.Lo == nil
	warm := from.prev.Lo != nil && from.prev.ContainsRect(o.Region)
	if warm {
		drop := []uint32{uint32(o.ID), from.victim}
		if insert {
			drop = drop[:1]
		}
		sc.ids = union(sc.ids, from.has, from.extra, drop...)
		warm = len(sc.ids) <= limit
	}

	t0 := time.Now()
	l, h, sched, keep := o.Region.Clone(), from.prev.Clone(), domination.FromH, from.has
	switch {
	case !warm:
		sc.cset = core.ChooseCSet(sc.cset[:0], w.db, w.regionTree, o, opts)
		h, sched, keep = w.db.Domain.Clone(), domination.Bisect, nil
	case insert: // where the newcomers cut nothing, W(o) still certifies all of prev
		sc.cset = w.membersByDistance(sc, from.extra, o)
	default: // the whole C-set stays in the list: the proof of the delete rule needs it
		sc.cset = w.membersByDistance(sc, sc.ids, o)
		l, h, sched, keep = from.prev.Clone(), from.prev.Union(from.victimUBR), domination.Bisect, sc.ids
	}
	csetTime := time.Since(t0)
	floor := l.Clone()
	ubr, wit, st := core.Run(sc.cset, o.Region, l, h, sched, opts.Delta, opts.MaxDepth, sc.wit[:0])
	st.CSetTime = csetTime
	if warm && insert {
		if sc.wit = wit; ubr.Equal(from.prev) {
			return ubr, from.has, st
		}
		sc.cset = w.membersByDistance(sc, sc.ids, o)
		var joint core.Stats
		ubr, wit, joint = core.Run(sc.cset, o.Region, o.Region.Clone(), ubr, sched, opts.Delta, opts.MaxDepth, wit)
		st.Add(joint)
		st.CSetSize, st.CSetVolume = joint.CSetSize, joint.CSetVolume
	}
	if !warm && len(wit) > limit {
		// The witnesses come in C-set order, nearest first.
		sc.cset = slices.DeleteFunc(sc.cset, func(c rtree.Item) bool { return !slices.Contains(wit[:limit], c.ID) })
		var rerun core.Stats
		ubr, wit, rerun = core.Run(sc.cset, o.Region, o.Region.Clone(), w.db.Domain.Clone(), sched, opts.Delta, opts.MaxDepth, wit[:0])
		st.Add(rerun)
		st.CSetSize, st.CSetVolume = rerun.CSetSize, rerun.CSetVolume
	}
	list := union(nil, keep, wit)
	if sc.wit = wit; (warm && ubr.Equal(from.prev)) || !fat(ubr, st) {
		return ubr, list, st
	}

	t1 := time.Now()
	esc := core.Escalated(opts)
	sc.cset = core.ChooseCSet(sc.cset[:0], w.db, w.regionTree, o, esc)
	if sched = domination.Bisect; warm {
		sched = domination.FromH
	}
	refined, wit, rst := core.Run(sc.cset, o.Region, floor, ubr.Clone(), sched, esc.Delta, esc.MaxDepth, sc.wit[:0])
	sc.wit = wit
	ref := core.RefineStats{Rows: 1, CSetSize: rst.CSetSize, Time: time.Since(t1),
		Iterations: rst.Iterations, DominationTests: rst.DominationTests, Shrinks: rst.Shrinks}
	if refined.Equal(ubr) {
		ref.Unchanged++
	}
	st.Refine.Add(ref)
	w.ix.refRows.Add(1)
	w.ix.refUnchanged.Add(int64(ref.Unchanged))
	w.ix.refBudget.Add(ref.DominationTests)
	if merged := union(nil, list, wit); len(merged) <= limit {
		ubr, list = refined, merged
	}
	return ubr, list, st
}

// membersByDistance lists ids as a warm C-set, nearest first from o's
// center like the IS browse, so the kernel's scan finds dominators early:
// ascending by (MinDist², ID), each key computed once.
func (w *working) membersByDistance(sc *seScratch, ids []uint32, o *uncertain.Object) []rtree.Item {
	center, keys := o.Region.Center(), sc.keys[:0]
	for _, id := range ids {
		if m := w.db.Get(uncertain.ID(id)); m != nil { // a dead witness breaks checkWitnesses' rules; live members stay sound
			keys = append(keys, memberKey{m.Region.MinDist2(center), id, m})
		}
	}
	slices.SortFunc(keys, func(a, b memberKey) int {
		return cmp.Or(cmp.Compare(a.d2, b.d2), cmp.Compare(a.id, b.id))
	})
	cset := sc.cset[:0]
	for _, k := range keys {
		cset = append(cset, rtree.Item{Rect: k.m.Region, ID: k.id})
	}
	sc.keys = keys
	return cset
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
// current version's rows, computed on demand: one octree window per row, and
// the write path's lifetime row counts.
type AdjacencyStats struct {
	// Rows is the number of objects.
	Rows int
	// RowsRecomputed counts the rows updates recomputed over the index's
	// lifetime, RowsPatched those whose stored UBR they rewrote.
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
	st := AdjacencyStats{Rows: len(degs), RowsRecomputed: ix.rowsRecomputed.Load(), RowsPatched: ix.rowsPatched.Load()}
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
	var win []uint32
	for id, ubr := range ubrs {
		var err error
		if win, err = v.primary.RangeIDs(ubr, win); err != nil {
			continue
		}
		n := 0
		for _, nid := range win {
			if nubr, ok := ubrs[nid]; ok && nid != id && nubr.Intersects(ubr) {
				n++
			}
		}
		degs[id] = n
	}
	return degs
}
