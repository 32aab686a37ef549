package core

import (
	"sync"
	"time"

	"pvoronoi/internal/domination"
	"pvoronoi/internal/geom"
	"pvoronoi/internal/rtree"
	"pvoronoi/internal/uncertain"
)

// Stats reports the cost profile of one SE run, feeding the paper's
// construction-time breakdowns (Fig. 10(e)). The flat counters cover the
// base SE pass only; the budget-aware refinement pass accounts its extra
// work separately in Refine, so aggregated stats attribute base and
// refinement effort honestly instead of lumping them together.
type Stats struct {
	CSetSize        int
	CSetTime        time.Duration
	UBRTime         time.Duration
	Iterations      int   // shrink-or-expand steps executed
	DominationTests int64 // individual spatial-domination decisions
	Shrinks         int   // steps that shrank h(o)
	Expands         int   // steps that expanded l(o)

	// Refine isolates the refinement pass's cost from the base counters
	// above. Zero unless a budget-aware refinement ran.
	Refine RefineStats
}

// RefineStats is the cost profile of the budget-aware refinement pass, the
// escalated SE re-run (RefineUBR). Kept apart from the base Stats counters so
// per-batch accounting can show exactly where the extra budget went.
type RefineStats struct {
	Rows            int           // objects whose UBR a refinement recomputed
	Unchanged       int           // of those, rows whose UBR came back bit-identical
	CSetSize        int           // escalated C-set sizes, summed
	Time            time.Duration // time of refinement SE work and of the pass's hub scoring
	Iterations      int           // refinement bisection steps attempted
	DominationTests int64         // domination decisions spent by refinement bisection
	Shrinks         int           // refinement steps that tightened the UBR
}

// Add accumulates s2 into s, for aggregating per-pass refinement stats.
func (s *RefineStats) Add(s2 RefineStats) {
	s.Rows += s2.Rows
	s.Unchanged += s2.Unchanged
	s.CSetSize += s2.CSetSize
	s.Time += s2.Time
	s.Iterations += s2.Iterations
	s.DominationTests += s2.DominationTests
	s.Shrinks += s2.Shrinks
}

// Add accumulates s2 into s, for aggregating per-object stats over a build.
func (s *Stats) Add(s2 Stats) {
	s.CSetSize += s2.CSetSize
	s.CSetTime += s2.CSetTime
	s.UBRTime += s2.UBRTime
	s.Iterations += s2.Iterations
	s.DominationTests += s2.DominationTests
	s.Shrinks += s2.Shrinks
	s.Expands += s2.Expands
	s.Refine.Add(s2.Refine)
}

// ComputeUBR runs the SE algorithm (Algorithm 1) for object o over database
// db and returns a UBR B(o) ⊇ V(o). The tree must index all object regions.
func ComputeUBR(db *uncertain.DB, tree *rtree.Tree, o *uncertain.Object, opts Options) (geom.Rect, Stats) {
	return computeUBRBounds(db, tree, o, opts, o.Region.Clone(), db.Domain.Clone(), domination.Bisect)
}

// ComputeUBRAfterDelete recomputes o's UBR after other objects were deleted
// from db; victimUBR bounds the UBRs they had. By Lemma 9 the PV-cell can only
// grow, so SE warm-starts with the old UBR as the lower bound l(o) (§VI-B,
// deletion Step 3) — and it can only grow into what the victims freed: a point
// new to V(o) was in a victim's cell (docs/ARCHITECTURE.md, "Warm starts"), so
// h(o) starts at the bounding box of the two instead of the domain, and a face
// the victims do not stick out of is never probed.
func ComputeUBRAfterDelete(db *uncertain.DB, tree *rtree.Tree, o *uncertain.Object, oldUBR, victimUBR geom.Rect, opts Options) (geom.Rect, Stats) {
	return computeUBRBounds(db, tree, o, opts, oldUBR.Clone(), oldUBR.Union(victimUBR), domination.Bisect)
}

// ComputeUBRAfterInsert recomputes o's UBR after another object was inserted
// into db. By Lemma 9 the PV-cell can only shrink, so SE warm-starts with the
// old UBR as the upper bound h(o) (§VI-B, insertion Step 3) and, expecting
// most faces to stay where they are, probes from h (domination.FromH).
func ComputeUBRAfterInsert(db *uncertain.DB, tree *rtree.Tree, o *uncertain.Object, oldUBR geom.Rect, opts Options) (geom.Rect, Stats) {
	// Guard the warm start: l(o)=u(o) must stay inside h(o)=oldUBR; if the
	// stored UBR somehow fails that (it cannot for UBRs produced here, but
	// defensive for external input), this is a cold run: h is the domain and
	// the answer is no longer expected near it, so the gaps are bisected.
	if !oldUBR.ContainsRect(o.Region) {
		return ComputeUBR(db, tree, o, opts)
	}
	return computeUBRBounds(db, tree, o, opts, o.Region.Clone(), oldUBR.Clone(), domination.FromH)
}

// workspace is the memory an SE run reuses from the last one: the tester, the
// C-set's regions and IS's quadrant counters. Every run takes one from
// workspaces and puts it back when it is done; nothing a run returns aliases
// it.
type workspace struct {
	tester domination.Tester
	cset   []geom.Rect
	counts []int
}

var workspaces = sync.Pool{New: func() any { return new(workspace) }}

// release returns ws to the pool, dropping its references to the regions.
func (ws *workspace) release() {
	clear(ws.cset)
	workspaces.Put(ws)
}

// computeUBRBounds is SE with explicit initial bounds l ⊆ M(o) ⊆ h: select
// the C-set, then shrink h and expand l (both are modified) on the given
// schedule until every directional gap is below Δ. The returned UBR is h.
func computeUBRBounds(db *uncertain.DB, tree *rtree.Tree, o *uncertain.Object, opts Options, l, h geom.Rect, sched domination.Schedule) (ubr geom.Rect, st Stats) {
	ws := workspaces.Get().(*workspace)
	defer ws.release()
	t0 := time.Now()
	ws.cset = ws.chooseCSet(ws.cset[:0], db, tree, o, opts)
	st.CSetTime = time.Since(t0)
	st.CSetSize = len(ws.cset)

	t1 := time.Now()
	defer func() { st.UBRTime = time.Since(t1) }()

	if len(ws.cset) == 0 {
		// Nothing constrains V(o): the PV-cell is the whole domain.
		return h, st
	}
	tester := ws.tester.Reset(ws.cset, o.Region, opts.MaxDepth)
	st.Iterations, st.Shrinks = tester.ShrinkExpand(l, h, opts.Delta, sched)
	st.Expands = st.Iterations - st.Shrinks
	st.DominationTests = tester.Tests
	return h, st
}

// BuildRegionTree indexes the uncertainty regions of every object in db in
// an R*-tree keyed by object ID — the shared support structure for FS/IS
// C-set selection and for the R-tree PNNQ baseline. The tree is bulk-loaded;
// later updates go through its Insert/Delete.
func BuildRegionTree(db *uncertain.DB, fanout int) *rtree.Tree {
	items := make([]rtree.Item, 0, db.Len())
	for _, o := range db.Objects() {
		items = append(items, rtree.Item{Rect: o.Region, ID: uint32(o.ID)})
	}
	return rtree.BulkLoad(db.Dim(), fanout, items)
}
