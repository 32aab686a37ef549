package pvindex

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"time"

	"pvoronoi/internal/core"
	"pvoronoi/internal/geom"
	"pvoronoi/internal/octree"
	"pvoronoi/internal/uncertain"
)

// RefineConfig controls the budget-aware UBR refinement subsystem: after the
// base SE pass, rows are ranked by hub score (UBR volume × degree, the number
// of other objects whose stored UBR intersects the row's) and a bounded
// extra-work budget is spent on the fattest ones — a deeper SE bisection with
// an enlarged C-set plus a leaf-level clip of the UBR against the octree
// cells that can still contain the PV-cell. Refined UBRs remain supersets of
// the true cell, so every query stays exact; the payoff is tighter UBRs alone
// — fewer Step-1 candidates over-fetched by a PNNQ near a hub. No extension
// query depends on it: they all retrieve over uncertainty regions.
//
// The zero value enables it. Images written while the config carried its
// budget knobs (now the constants below) still load: gob skips the fields.
type RefineConfig struct {
	// Disabled turns the subsystem off entirely (construction, batches,
	// load). An explicit Index.Refine call still runs a pass.
	Disabled bool
}

// hubRule selects the rows a whole-index pass refines: the topFraction
// fattest by hub score among rows of degree ≥ minDegree (lower-degree rows
// are not hubs, and spending budget on them would be uniform work, not
// targeted). It is a variable only so that in-package tests can widen the
// selection.
var hubRule = struct {
	topFraction float64
	minDegree   int
}{topFraction: 0.02, minDegree: 16}

// refineOptions escalates the base SE pass for refinement: four more levels
// of domination recursion and four times the C-set quotas.
var refineOptions = core.RefineOptions{DepthBoost: 4, CSetFactor: 4}

// ubrNeighbours counts hub degrees over one version's octree and stored UBRs.
// Every object whose UBR intersects UBR(o) has an entry in a leaf UBR(o)
// reaches — two intersecting UBRs share a point, hence a leaf cell — so one
// octree window over UBR(o) holds all of o's neighbours. A pass scores many
// overlapping windows, so it reads each UBR once and keeps it in ubrs.
type ubrNeighbours struct {
	primary *octree.Tree
	lookup  func(uint32) (geom.Rect, bool)
	ubrs    map[uint32]geom.Rect
}

func newUBRNeighbours(primary *octree.Tree, lookup func(uint32) (geom.Rect, bool)) *ubrNeighbours {
	return &ubrNeighbours{primary: primary, lookup: lookup, ubrs: make(map[uint32]geom.Rect)}
}

// ubr returns id's stored UBR, read at most once per pass.
func (nb *ubrNeighbours) ubr(id uint32) (geom.Rect, bool) {
	if r, ok := nb.ubrs[id]; ok {
		return r, true
	}
	r, ok := nb.lookup(id)
	if ok {
		nb.ubrs[id] = r
	}
	return r, ok
}

// window returns the other IDs in the octree window over id's stored UBR:
// a superset of id's neighbours, so its size bounds id's degree.
func (nb *ubrNeighbours) window(id uint32, ubr geom.Rect) (map[uint32]bool, error) {
	ids, err := nb.primary.RangeIDs(ubr)
	delete(ids, id)
	return ids, err
}

// degree counts the IDs of window whose stored UBR intersects ubr.
func (nb *ubrNeighbours) degree(ubr geom.Rect, window map[uint32]bool) int {
	deg := 0
	for nid := range window {
		if nubr, ok := nb.ubr(nid); ok && nubr.Intersects(ubr) {
			deg++
		}
	}
	return deg
}

// refineThreshold returns the incremental re-refinement cutoff: the minimum
// hub score the construction pass spent budget on. Unset (no pass yet, or
// nothing selected) reads as +Inf, so batches refine nothing.
func (ix *Index) refineThreshold() float64 {
	bits := ix.refThresholdBits.Load()
	if bits == 0 {
		return math.Inf(1)
	}
	return math.Float64frombits(bits)
}

func (ix *Index) setRefineThreshold(v float64) {
	ix.refThresholdBits.Store(math.Float64bits(v))
}

// noteRefine folds one pass's work into the lifetime counters.
func (ix *Index) noteRefine(st core.RefineStats) {
	ix.refRows.Add(int64(st.Rows))
	ix.refClipPasses.Add(int64(st.ClipPasses))
	ix.refBudget.Add(st.DominationTests + st.ClipTests)
}

// RefineCounters are the refinement subsystem's lifetime totals.
type RefineCounters struct {
	// RowsRefined counts rows whose UBR a refinement pass recomputed.
	RowsRefined int64
	// ClipPasses counts octree clip walks executed.
	ClipPasses int64
	// BudgetSpent counts domination decisions consumed by refinement
	// (bisection plus clip walks) — the subsystem's work unit.
	BudgetSpent int64
	// Threshold is the current incremental re-refinement cutoff (+Inf until
	// a construction pass sets it).
	Threshold float64
}

// RefineCounters returns the refinement subsystem's lifetime totals.
func (ix *Index) RefineCounters() RefineCounters {
	return RefineCounters{
		RowsRefined: ix.refRows.Load(),
		ClipPasses:  ix.refClipPasses.Load(),
		BudgetSpent: ix.refBudget.Load(),
		Threshold:   ix.refineThreshold(),
	}
}

// scoredRow pairs a row ID with its hub score for selection.
type scoredRow struct {
	id    uint32
	score float64
}

// hubScores scores the listed rows of w — hub score UBR volume × degree —
// and returns those of degree ≥ hubRule.minDegree whose score is positive and
// reaches floor, fattest first (ties by ID). A row whose window alone rules
// it out is dropped before any neighbour's UBR is read.
func (w *working) hubScores(ids []uint32, floor float64) ([]scoredRow, error) {
	nb := newUBRNeighbours(w.primary, w.lookupUBR)
	keep := func(s float64) bool { return s > 0 && s >= floor }
	var rows []scoredRow
	for _, id := range ids {
		ubr, ok := nb.ubr(id)
		if !ok {
			continue
		}
		win, err := nb.window(id, ubr)
		if err != nil {
			return nil, err
		}
		vol := ubr.Volume()
		if len(win) < hubRule.minDegree || !keep(vol*float64(len(win))) {
			continue
		}
		deg := nb.degree(ubr, win)
		if s := vol * float64(deg); deg >= hubRule.minDegree && keep(s) {
			rows = append(rows, scoredRow{id, s})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].score != rows[j].score {
			return rows[i].score > rows[j].score
		}
		return rows[i].id < rows[j].id
	})
	return rows, nil
}

// selectHubsAll scores every row and returns the construction budget's
// targets — the hubRule.topFraction fattest qualifying rows — plus the
// threshold score the incremental path will re-refine against (the weakest
// selected hub; +Inf when nothing qualifies).
func (w *working) selectHubsAll() ([]uint32, float64, error) {
	objs := w.db.Objects()
	ids := make([]uint32, len(objs))
	for i, o := range objs {
		ids[i] = uint32(o.ID)
	}
	rows, err := w.hubScores(ids, 0)
	if err != nil || len(rows) == 0 {
		return nil, math.Inf(1), err
	}
	budget := min(int(math.Ceil(hubRule.topFraction*float64(len(objs)))), len(rows))
	for i := range budget {
		ids[i] = rows[i].id
	}
	return ids[:budget], rows[budget-1].score, nil
}

// selectHubsAmong scores only the given rows (a batch's recomputed set) and
// returns those whose hub score reaches the construction threshold, fattest
// first — the incremental re-refinement rule: spend extra budget exactly on
// rows that just crossed back into hub territory.
func (w *working) selectHubsAmong(ids map[uint32]struct{}, threshold float64) ([]uint32, error) {
	if math.IsInf(threshold, 1) {
		return nil, nil
	}
	rows, err := w.hubScores(slices.Collect(maps.Keys(ids)), threshold)
	out := make([]uint32, len(rows))
	for i, r := range rows {
		out[i] = r.id
	}
	return out, err
}

// refineJob is one row's refinement: computed in parallel, applied serially.
type refineJob struct {
	id   uint32
	obj  *uncertain.Object
	oldB geom.Rect
	newB geom.Rect
	st   core.Stats
}

// refinePass recomputes the listed rows' UBRs with the escalated SE pass and
// the octree clip walk, then applies every strict shrink to the primary and
// secondary indexes. The compute phase fans out over the SE worker pool
// (read-only over the database, region tree and octree skeleton); the apply
// phase is serial, like every other index mutation. Exactness: both shrink mechanisms remove
// only regions a conservative domination tester proves disjoint from the
// PV-cell, so the stored UBR remains a superset of V(o) throughout.
func (w *working) refinePass(ids []uint32) (core.RefineStats, error) {
	ix := w.ix
	jobs := make([]refineJob, 0, len(ids))
	for _, id := range ids {
		obj := w.db.Get(uncertain.ID(id))
		if obj == nil {
			continue
		}
		oldB, ok := w.lookupUBR(id)
		if !ok {
			return core.RefineStats{}, fmt.Errorf("pvindex: refining object %d with no stored UBR", id)
		}
		jobs = append(jobs, refineJob{id: id, obj: obj, oldB: oldB})
	}
	ix.parallelSE(len(jobs), func(i int) {
		j := &jobs[i]
		rf := core.NewRefiner(w.db, w.regionTree, j.obj, ix.cfg.SE, refineOptions)
		j.newB, j.st = rf.Refine(j.oldB)
		seTests := rf.Tests()
		clipped, cells := w.primary.ClipUBR(j.newB, rf.Prunable)
		j.st.Refine.ClipPasses++
		j.st.Refine.ClipCells += cells
		j.st.Refine.ClipTests = rf.Tests() - seTests
		if !clipped.ContainsRect(j.obj.Region) {
			// Unreachable for a sound tester (u(o) ⊆ V(o) survives every
			// prune); keep the guard so a bug can only cost tightness.
			clipped = clipped.Union(j.obj.Region)
		}
		j.newB = clipped
	})

	var st core.RefineStats
	for i := range jobs {
		j := &jobs[i]
		st.Add(j.st.Refine)
		if j.newB.Equal(j.oldB) {
			continue
		}
		if _, err := w.primary.RemoveDiff(j.id, j.oldB, j.newB); err != nil {
			return st, err
		}
		rec := record{UBR: j.newB, Region: j.obj.Region, Instances: j.obj.Instances}
		if err := w.putRecord(j.id, rec); err != nil {
			return st, err
		}
	}
	return st, nil
}

// refineAll runs one whole-index refinement pass on w: select the
// top-fraction hubs across every row, fix the incremental re-refinement
// threshold at the weakest of them, and refine them. Construction runs it on
// the bootstrap working set, Refine on a fresh one over the published
// version.
func (ix *Index) refineAll(w *working) (core.RefineStats, error) {
	start := time.Now()
	ids, threshold, err := w.selectHubsAll()
	if err != nil {
		return core.RefineStats{}, err
	}
	ix.setRefineThreshold(threshold)
	return w.refine(ids, time.Since(start))
}

// refineAfterBatch is the incremental write-path hook: re-score exactly the
// rows the batch recomputed and re-refine those whose hub score crossed the
// construction threshold. Returns the pass's stats so the batch can
// attribute the extra budget.
func (w *working) refineAfterBatch() (core.RefineStats, error) {
	if w.ix.cfg.Refine.Disabled || len(w.changed) == 0 {
		return core.RefineStats{}, nil
	}
	start := time.Now()
	ids, err := w.selectHubsAmong(w.changed, w.ix.refineThreshold())
	if err != nil {
		return core.RefineStats{}, err
	}
	return w.refine(ids, time.Since(start))
}

// refine runs refinePass over the selected rows, if any, and folds its work
// into the lifetime counters; the pass's time includes scoring, the time the
// selection took.
func (w *working) refine(ids []uint32, scoring time.Duration) (core.RefineStats, error) {
	st := core.RefineStats{Time: scoring}
	if len(ids) == 0 {
		return st, nil
	}
	pass, err := w.refinePass(ids)
	st.Add(pass)
	if err == nil {
		w.ix.noteRefine(st)
	}
	return st, err
}

// Refine runs one budget-aware refinement pass over the current version as
// its own write batch: hubs are selected fresh across every row (resetting the incremental threshold), refined on the SE worker
// pool, and published as a new MVCC version. Queries never block, and the
// pass runs even when Config.Refine.Disabled — an explicit call is the
// opt-in (this is how benchmarks measure the same index before and after
// refinement). Refinement changes no query result, only the tightness of
// stored UBRs, so the pass is not WAL-logged: a crash simply loses tightness
// that the next pass can re-buy.
func (ix *Index) Refine() (core.RefineStats, error) {
	ix.writerMu.Lock()
	defer ix.writerMu.Unlock()
	if err := ix.damagedErr(); err != nil {
		return core.RefineStats{}, err
	}
	base := ix.current.Load()
	w := ix.newWorking(base)
	st, err := ix.refineAll(w)
	if err != nil || st.Rows == 0 { // failed, or no hub to refine: nothing to publish
		w.abort()
		return st, err
	}
	ix.publishWorking(w, base.walSeq)
	return st, nil
}

// AdjacencyStats is the degree distribution refinement ranks hubs by, over
// the current version's rows, computed on demand: one octree window per row.
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
// A row whose UBR or window cannot be read is left out.
func (ix *Index) Adjacency() AdjacencyStats {
	v := ix.pin()
	defer ix.unpin(v)
	nb := newUBRNeighbours(v.primary, func(id uint32) (geom.Rect, bool) { return v.ubr(uncertain.ID(id)) })
	degs := make([]int, 0, v.db.Len())
	for _, o := range v.db.Objects() {
		ubr, ok := nb.ubr(uint32(o.ID))
		if !ok {
			continue
		}
		if win, err := nb.window(uint32(o.ID), ubr); err == nil {
			degs = append(degs, nb.degree(ubr, win))
		}
	}
	st := AdjacencyStats{Rows: len(degs)}
	if len(degs) > 0 {
		slices.Sort(degs)
		st.DegreeP50, st.DegreeMax = degs[(len(degs)-1)/2], degs[len(degs)-1]
	}
	return st
}
