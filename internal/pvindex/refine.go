package pvindex

import (
	"fmt"
	"math"
	"sort"

	"pvoronoi/internal/adjgraph"
	"pvoronoi/internal/core"
	"pvoronoi/internal/geom"
	"pvoronoi/internal/uncertain"
)

// RefineConfig controls the budget-aware UBR refinement subsystem: after the
// base SE pass, rows are ranked by hub score (UBR volume × adjacency degree)
// and a bounded extra-work budget is spent on the fattest ones — a deeper SE
// bisection with an enlarged C-set plus a leaf-level clip of the UBR against
// the octree cells that can still contain the PV-cell. Refined UBRs remain
// supersets of the true cell, so every query stays exact; the payoff is
// tighter UBRs alone — fewer Step-1 candidates over-fetched by a PNNQ near a
// hub and fewer adjacency edges for the write path to patch. No extension
// query depends on it: they all retrieve over uncertainty regions.
//
// Zero values select the defaults noted per field; set a field negative to
// force the knob off (e.g. MinDegree: -1 admits every row).
type RefineConfig struct {
	// Disabled turns the subsystem off entirely (construction, batches,
	// load). An explicit Index.Refine call still runs a pass.
	Disabled bool
	// TopFraction is the fraction of rows the construction pass refines,
	// fattest-first (default 0.02).
	TopFraction float64
	// MaxRows caps the rows refined by any single pass (default 0: no cap).
	MaxRows int
	// DepthBoost deepens the refinement domination tester beyond the base
	// SE MaxDepth (default 4).
	DepthBoost int
	// CSetFactor multiplies the base C-set quotas (K, KPartition, KGlobal)
	// for the refinement pass (default 4).
	CSetFactor int
	// MinDegree exempts rows with fewer neighbors — they are not hubs, and
	// spending budget on them would be uniform work, not targeted
	// (default 16).
	MinDegree int
}

// withDefaults resolves the zero-value knobs to their documented defaults.
func (c RefineConfig) withDefaults() RefineConfig {
	if c.TopFraction == 0 {
		c.TopFraction = 0.02
	}
	if c.TopFraction > 1 {
		c.TopFraction = 1
	}
	if c.MaxRows < 0 {
		c.MaxRows = 0
	}
	if c.DepthBoost == 0 {
		c.DepthBoost = 4
	}
	if c.CSetFactor == 0 {
		c.CSetFactor = 4
	}
	if c.MinDegree == 0 {
		c.MinDegree = 16
	}
	if c.MinDegree < 0 {
		c.MinDegree = 0
	}
	return c
}

// refineOptions maps the config onto the core escalation knobs.
func (c RefineConfig) refineOptions() core.RefineOptions {
	return core.RefineOptions{DepthBoost: c.DepthBoost, CSetFactor: c.CSetFactor}
}

// hubScore ranks a row's looseness: a large UBR is a Step-1 candidate over a
// large part of the domain, and a high degree is the adjacency work every
// update near it pays. The product is what the budget should buy down.
func hubScore(row *adjgraph.Row) float64 {
	return row.UBR.Volume() * float64(len(row.Neighbors))
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

// selectHubsAll scores every adjacency row and returns the construction
// budget's targets — the TopFraction fattest rows (degree ≥ MinDegree,
// positive score), capped by MaxRows — plus the threshold score the
// incremental path will re-refine against (the weakest selected hub; +Inf
// when nothing qualifies).
func (w *working) selectHubsAll(rc RefineConfig) ([]uint32, float64) {
	var rows []scoredRow
	w.adj.ForEach(func(id uint32, row *adjgraph.Row) bool {
		if len(row.Neighbors) < rc.MinDegree {
			return true
		}
		if s := hubScore(row); s > 0 {
			rows = append(rows, scoredRow{id, s})
		}
		return true
	})
	if len(rows) == 0 {
		return nil, math.Inf(1)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].score != rows[j].score {
			return rows[i].score > rows[j].score
		}
		return rows[i].id < rows[j].id
	})
	budget := int(math.Ceil(rc.TopFraction * float64(w.adj.Len())))
	if budget < 1 {
		budget = 1
	}
	if rc.MaxRows > 0 && budget > rc.MaxRows {
		budget = rc.MaxRows
	}
	if budget > len(rows) {
		budget = len(rows)
	}
	ids := make([]uint32, budget)
	for i := 0; i < budget; i++ {
		ids[i] = rows[i].id
	}
	return ids, rows[budget-1].score
}

// selectHubsAmong scores only the given rows (a batch's recomputed set) and
// returns those whose hub score reaches the construction threshold —
// the incremental re-refinement rule: spend extra budget exactly on rows
// that just crossed back into hub territory, fattest first, capped by
// MaxRows.
func (w *working) selectHubsAmong(ids map[uint32]struct{}, rc RefineConfig, threshold float64) []uint32 {
	if math.IsInf(threshold, 1) {
		return nil
	}
	var rows []scoredRow
	for id := range ids {
		row, ok := w.adj.Get(id)
		if !ok || len(row.Neighbors) < rc.MinDegree {
			continue
		}
		if s := hubScore(row); s >= threshold && s > 0 {
			rows = append(rows, scoredRow{id, s})
		}
	}
	if len(rows) == 0 {
		return nil
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].score != rows[j].score {
			return rows[i].score > rows[j].score
		}
		return rows[i].id < rows[j].id
	})
	if rc.MaxRows > 0 && len(rows) > rc.MaxRows {
		rows = rows[:rc.MaxRows]
	}
	out := make([]uint32, len(rows))
	for i, r := range rows {
		out[i] = r.id
	}
	return out
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
// secondary indexes and marks the rows for adjacency recomputation. The
// compute phase fans out over the SE worker pool (read-only over the
// database, region tree and octree skeleton); the apply phase is serial,
// like every other index mutation. Exactness: both shrink mechanisms remove
// only regions a conservative domination tester proves disjoint from the
// PV-cell, so the stored UBR remains a superset of V(o) throughout.
func (w *working) refinePass(ids []uint32, rc RefineConfig) (core.RefineStats, error) {
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
	refOpts := rc.refineOptions()
	ix.parallelSE(len(jobs), func(i int) {
		j := &jobs[i]
		rf := core.NewRefiner(w.db, w.regionTree, j.obj, ix.cfg.SE, refOpts)
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
		w.adjMarkChanged(j.id)
	}
	return st, nil
}

// refineAll runs one whole-graph refinement pass on w, a working set whose
// adjacency graph is current: select the top-fraction hubs across every row,
// fix the incremental re-refinement threshold at the weakest of them, refine
// them, and fold the shrunken UBRs back into the graph through the same
// incremental machinery batches use. Construction runs it on the bootstrap
// working set, Refine on a fresh one over the published version.
func (ix *Index) refineAll(w *working) (core.RefineStats, error) {
	rc := ix.cfg.Refine.withDefaults()
	ids, threshold := w.selectHubsAll(rc)
	ix.setRefineThreshold(threshold)
	if len(ids) == 0 {
		return core.RefineStats{}, nil
	}
	st, err := w.refinePass(ids, rc)
	if err == nil {
		err = w.updateAdjacency()
	}
	if err != nil {
		return st, err
	}
	ix.noteRefine(st)
	return st, nil
}

// refineAfterBatch is the incremental write-path hook: after a batch's
// adjacency update, re-score exactly the rows the batch recomputed and
// re-refine those whose hub score crossed the construction threshold. The
// refinement's own UBR shrinks then flow through a second, equally
// incremental adjacency update. Returns the pass's stats so the batch can
// attribute the extra budget.
func (w *working) refineAfterBatch() (core.RefineStats, error) {
	ix := w.ix
	if ix.cfg.Refine.Disabled || len(w.adjChanged) == 0 {
		return core.RefineStats{}, nil
	}
	rc := ix.cfg.Refine.withDefaults()
	ids := w.selectHubsAmong(w.adjChanged, rc, ix.refineThreshold())
	if len(ids) == 0 {
		return core.RefineStats{}, nil
	}
	clear(w.adjChanged)
	clear(w.adjRemoved)
	st, err := w.refinePass(ids, rc)
	if err != nil {
		return st, err
	}
	ix.noteRefine(st)
	return st, w.updateAdjacency()
}

// Refine runs one budget-aware refinement pass over the current version as
// its own write batch: hubs are selected fresh across the whole adjacency
// graph (resetting the incremental threshold), refined on the SE worker
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
