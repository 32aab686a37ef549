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
// base SE run only; the caller that escalates a row (a second Run with
// Escalated options) accounts that run's work separately in Refine, so
// aggregated stats attribute base and refinement effort honestly instead of
// lumping them together.
type Stats struct {
	CSetSize        int
	CSetVolume      float64 // bounding-box volume of the C-set's regions, 0 if empty; not summed by Add
	CSetTime        time.Duration
	UBRTime         time.Duration
	Iterations      int   // shrink-or-expand steps executed
	DominationTests int64 // individual spatial-domination decisions
	Shrinks         int   // steps that shrank h(o)
	Expands         int   // steps that expanded l(o)

	// Refine isolates the escalated re-run's cost from the base counters
	// above. Zero unless the row was escalated.
	Refine RefineStats
}

// RefineStats is the cost profile of refinement, the escalated SE re-run.
// Kept apart from the base Stats counters so per-batch
// accounting can show exactly where the extra budget went.
type RefineStats struct {
	Rows            int           // objects whose UBR a refinement recomputed
	Unchanged       int           // of those, rows whose UBR came back bit-identical
	CSetSize        int           // escalated C-set sizes, summed
	Time            time.Duration // time of the escalated SE runs
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

// Refinement re-runs SE for a fat row with the two knobs that limit how far SE
// can shrink a UBR in a dense neighbourhood escalated: refineDepthBoost more
// levels of domination recursion and refineCSetFactor times every C-set quota.
const (
	refineDepthBoost = 4
	refineCSetFactor = 4
)

// Escalated returns the base SE options with refinement's escalation applied:
// the options of a fat row's re-run, its C-set chosen with them.
func Escalated(base Options) Options {
	base.MaxDepth += refineDepthBoost
	base.K *= refineCSetFactor
	base.KPartition *= refineCSetFactor
	base.KGlobal *= refineCSetFactor
	return base
}

// ComputeUBR is the cold SE run (Algorithm 1) for object o over database db:
// the C-set ChooseCSet picks, l = u(o), h = the domain, every gap bisected. It
// returns a UBR B(o) ⊇ V(o). The tree must index all object regions.
func ComputeUBR(db *uncertain.DB, tree *rtree.Tree, o *uncertain.Object, opts Options) (geom.Rect, Stats) {
	ws := workspaces.Get().(*workspace)
	defer ws.release()
	t0 := time.Now()
	ws.items = ws.chooseCSet(ws.items[:0], db, tree, o, opts)
	csetTime := time.Since(t0)
	ubr, wit, st := ws.run(ws.items, o.Region, o.Region.Clone(), db.Domain.Clone(), domination.Bisect, opts.Delta, opts.MaxDepth, ws.wit[:0])
	ws.wit, st.CSetTime = wit, csetTime
	return ubr, st
}

// ChooseCSet appends the C-set of object o — its IDs and regions, nearest
// first under IS and FS — to dst and returns it (cset.go).
func ChooseCSet(dst []rtree.Item, db *uncertain.DB, tree *rtree.Tree, o *uncertain.Object, opts Options) []rtree.Item {
	ws := workspaces.Get().(*workspace)
	defer ws.release()
	return ws.chooseCSet(dst, db, tree, o, opts)
}

// Run is one SE run for the object whose region is target over a C-set the
// caller chose (any subset of the other objects is sound, Lemma 7; scanned
// in the given order): from l ⊆ M(o) ⊆ h, both updated in place, it shrinks
// h and expands l on sched until every gap is below delta, bisecting parts at
// most depth times. It returns h, wit with the IDs of its witnesses appended
// (docs/ARCHITECTURE.md, "Witnesses") and its counts but CSetTime.
func Run(cset []rtree.Item, target, l, h geom.Rect, sched domination.Schedule, delta float64, depth int, wit []uint32) (geom.Rect, []uint32, Stats) {
	ws := workspaces.Get().(*workspace)
	defer ws.release()
	return ws.run(cset, target, l, h, sched, delta, depth, wit)
}

func (ws *workspace) run(cset []rtree.Item, target, l, h geom.Rect, sched domination.Schedule, delta float64, depth int, wit []uint32) (ubr geom.Rect, _ []uint32, st Stats) {
	t1 := time.Now()
	defer func() { st.UBRTime = time.Since(t1) }()
	st.CSetSize, st.CSetVolume = len(cset), boxVolume(cset)
	if len(cset) == 0 {
		return h, wit, st
	}
	ws.rects = ws.rects[:0]
	for _, c := range cset {
		ws.rects = append(ws.rects, c.Rect)
	}
	tester := ws.tester.Reset(ws.rects, target, depth)
	st.Iterations, st.Shrinks = tester.ShrinkExpand(l, h, delta, sched)
	st.Expands = st.Iterations - st.Shrinks
	st.DominationTests = tester.Tests
	for i, c := range cset {
		if tester.Witness(i) {
			wit = append(wit, c.ID)
		}
	}
	return h, wit, st
}

// workspace is the memory SE reuses from the last run: the tester, the C-set
// (as chosen and as the tester takes it), ComputeUBR's witnesses and IS's
// quadrant counters. Every call takes one from workspaces and puts it back
// when it is done; nothing it returns aliases it.
type workspace struct {
	tester domination.Tester
	items  []rtree.Item
	rects  []geom.Rect
	wit    []uint32
	counts []int
	leaves int // region-tree leaves the last IS browse opened
}

var workspaces = sync.Pool{New: func() any { return new(workspace) }}

// release returns ws to the pool, dropping its references to the regions.
func (ws *workspace) release() {
	clear(ws.items)
	clear(ws.rects)
	workspaces.Put(ws)
}

// boxVolume is the volume of the bounding box of rs, 0 when rs is empty,
// taken a dimension at a time without building the box.
func boxVolume(rs []rtree.Item) float64 {
	if len(rs) == 0 {
		return 0
	}
	v := 1.0
	for k := range rs[0].Rect.Lo {
		lo, hi := rs[0].Rect.Lo[k], rs[0].Rect.Hi[k]
		for _, r := range rs[1:] {
			lo, hi = min(lo, r.Rect.Lo[k]), max(hi, r.Rect.Hi[k])
		}
		v *= hi - lo
	}
	return v
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
