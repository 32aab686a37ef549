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
	"pvoronoi/internal/uncertain"
)

// RefineConfig controls the budget-aware UBR refinement subsystem: after the
// base SE pass, rows are ranked by hub score (UBR volume × window mass, the
// other objects' entries in the octree leaves the row's UBR reaches) and a
// bounded extra-work budget is spent on the fattest ones — a deeper SE
// bisection with an enlarged C-set plus a leaf-level clip of the UBR against
// the octree cells that can still contain the PV-cell. Refined UBRs remain
// supersets of the true cell, so every query stays exact; the payoff is
// tighter UBRs alone — fewer Step-1 candidates over-fetched by a PNNQ near a
// hub. No extension query depends on it: they all retrieve over uncertainty
// regions.
//
// The zero value enables it. Images written while the config carried its
// budget knobs (now the constants below) still load: gob skips the fields.
type RefineConfig struct {
	// Disabled turns the subsystem off entirely (construction, batches,
	// load). An explicit Index.Refine call still runs a pass.
	Disabled bool
}

// hubRule selects the rows a whole-index pass refines: the topFraction
// fattest by hub score among rows of window mass ≥ minMass (lighter rows are
// not hubs, and spending budget on them would be uniform work, not
// targeted). It is a variable only so that in-package tests can widen the
// selection.
var hubRule = struct {
	topFraction float64
	minMass     int
}{topFraction: 0.02, minMass: 16}

// refineOptions escalates the base SE pass for refinement: four more levels
// of domination recursion and four times the C-set quotas.
var refineOptions = core.RefineOptions{DepthBoost: 4, CSetFactor: 4}

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
	ix.refUnchanged.Add(int64(st.Unchanged))
	ix.refClipPasses.Add(int64(st.ClipPasses))
	ix.refBudget.Add(st.DominationTests + st.ClipTests)
}

// RefineCounters are the refinement subsystem's lifetime totals.
type RefineCounters struct {
	// RowsRefined counts rows whose UBR a refinement pass recomputed.
	RowsRefined int64
	// RowsUnchanged counts refined rows whose UBR came back bit-identical:
	// refinement spent on a row it could not tighten.
	RowsUnchanged int64
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
		RowsRefined:   ix.refRows.Load(),
		RowsUnchanged: ix.refUnchanged.Load(),
		ClipPasses:    ix.refClipPasses.Load(),
		BudgetSpent:   ix.refBudget.Load(),
		Threshold:     ix.refineThreshold(),
	}
}

// scoredRow pairs a row ID with its hub score for selection.
type scoredRow struct {
	id    uint32
	score float64
}

// hubScores scores the listed rows of w — UBR volume × window mass, the
// entries of the octree leaves the UBR reaches less the row's own in each, an
// upper bound on its degree — and returns those of mass ≥ hubRule.minMass
// whose score is positive and reaches floor, fattest first (ties by ID).
func (w *working) hubScores(ids []uint32, floor float64) ([]scoredRow, error) {
	var rows []scoredRow
	for _, id := range ids {
		ubr, ok := w.lookupUBR(id)
		if !ok {
			continue
		}
		entries, leaves, err := w.primary.WindowMass(ubr)
		if err != nil {
			return nil, err
		}
		mass := entries - leaves
		if s := ubr.Volume() * float64(mass); mass >= hubRule.minMass && s > 0 && s >= floor {
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
		rf.Release()
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
			st.Unchanged++
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
