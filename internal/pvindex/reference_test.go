package pvindex

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"runtime"
	"testing"
	"time"

	"pvoronoi/internal/adjgraph"
	"pvoronoi/internal/core"
	"pvoronoi/internal/exthash"
	"pvoronoi/internal/geom"
	"pvoronoi/internal/octree"
	"pvoronoi/internal/pagestore"
	"pvoronoi/internal/rtree"
	"pvoronoi/internal/uncertain"
)

// The write paths the one write path replaced, kept as they were so that
// differential_test.go can hold the new code to them: the op-at-a-time
// apply loop with its three SE modes and impact rectangles, the insert it
// drove, the construction-time adjacency builder, and the insert-at-a-time
// build loop the octree bulk load replaced.

// seMode selects how an insert's UBR is obtained during batch application.
type seMode int

const (
	// seUseStaged reuses the UBR staged before the apply unchanged — valid
	// when no earlier batch op could have affected the newcomer's PV-cell.
	seUseStaged seMode = iota
	// seWarmStart re-runs SE warm-started from the staged UBR as the upper
	// bound — valid when only earlier *inserts* interact (Lemma 9: the cell
	// can only have shrunk).
	seWarmStart
	// seCold recomputes from scratch — required when an earlier delete
	// interacts (the cell may have grown beyond the staged bound).
	seCold
)

// stagedSE is the pre-apply SE precomputation for one insert: the
// newcomer's UBR over the pre-batch database, with its cost profile.
type stagedSE struct {
	ubr   geom.Rect
	stats core.Stats
	dur   time.Duration
}

// impact records the region of influence of one applied batch op: the new
// object's UBR for an insert, the victim's stored UBR for a delete. A staged
// UBR that intersects no earlier impact is still exact.
type impact struct {
	rect     geom.Rect
	isDelete bool
}

// referenceStage is the fan-out stageBatch ran between validation and the
// log: every insert's UBR over the published version.
func (ix *Index) referenceStage(base *version, ups []Update) []stagedSE {
	staged := make([]stagedSE, len(ups))
	var idxs []int
	for i, u := range ups {
		if u.Op == OpInsert {
			idxs = append(idxs, i)
		}
	}
	ix.parallelSE(len(idxs), func(k int) {
		i := idxs[k]
		t0 := time.Now()
		staged[i].ubr, staged[i].stats = core.ComputeUBR(base.db, base.regionTree, ups[i].Object, ix.cfg.SE)
		staged[i].dur = time.Since(t0)
	})
	return staged
}

// referenceApplyBatch is ApplyBatch as it was, minus the log: validate,
// stage, apply through the old loop, patch the graph, refine, publish.
func (ix *Index) referenceApplyBatch(ups []Update) error {
	ix.writerMu.Lock()
	defer ix.writerMu.Unlock()
	base := ix.current.Load()
	if err := validateBatch(base.db, ups); err != nil {
		return err
	}
	staged := ix.referenceStage(base, ups)
	w := ix.newWorking(base)
	_, err := w.referenceApply(ups, staged)
	if err == nil {
		err = w.updateAdjacency()
	}
	if err == nil {
		_, err = w.refineAfterBatch()
	}
	if err != nil {
		w.abort()
		return err
	}
	ix.publishWorking(w, base.walSeq)
	return nil
}

// referenceApply is the old apply loop: an all-insert batch of two or more
// set-at-a-time (applyInserts, which staged outside then and stages inside
// now), anything else op-at-a-time under the seMode its impacts select.
func (w *working) referenceApply(ups []Update, staged []stagedSE) ([]UpdateStats, error) {
	insertsOnly := true
	for _, u := range ups {
		if u.Op != OpInsert {
			insertsOnly = false
			break
		}
	}
	if insertsOnly && len(ups) > 1 {
		return w.applyInserts(ups)
	}

	stats := make([]UpdateStats, 0, len(ups))
	var impacts []impact
	for i, u := range ups {
		switch u.Op {
		case OpInsert:
			mode := seUseStaged
			for _, im := range impacts {
				if !im.rect.Intersects(staged[i].ubr) {
					continue
				}
				if im.isDelete {
					mode = seCold
					break
				}
				mode = seWarmStart
			}
			st, newB, err := w.applyInsert(u.Object, &staged[i], mode)
			if err != nil {
				return stats, err
			}
			stats = append(stats, st)
			impacts = append(impacts, impact{rect: newB})
		case OpDelete:
			victimUBR, _ := w.lookupUBR(uint32(u.ID)) // applyDelete returned it then
			st, err := w.applyDelete(u.ID)
			if err != nil {
				return stats, err
			}
			stats = append(stats, st)
			impacts = append(impacts, impact{rect: victimUBR, isDelete: true})
		}
	}
	return stats, nil
}

// applyInsert performs the incremental insertion of §VI-B against the
// writer's working version. The newcomer's UBR comes from the staged
// precomputation when mode allows (staged may be nil, forcing seCold — the
// replay path). The returned rectangle is the newcomer's applied UBR (its
// impact region for later batch ops).
func (w *working) applyInsert(o *uncertain.Object, staged *stagedSE, mode seMode) (UpdateStats, geom.Rect, error) {
	var st UpdateStats
	start := time.Now()
	defer func() { st.TotalTime = time.Since(start) }()
	cfg := w.ix.cfg

	if err := w.db.Add(o); err != nil {
		return st, geom.Rect{}, err
	}
	w.regionTree.Insert(rtree.Item{Rect: o.Region, ID: uint32(o.ID)})

	// Step 1: UBR of the newcomer over the updated database. The PV-cells
	// of affected objects can only shrink (Lemma 9), so their UBRs are
	// recomputed warm-started from the old UBR as the upper bound.
	var newB geom.Rect
	if staged == nil {
		mode = seCold
	}
	switch mode {
	case seUseStaged:
		// Nothing relevant changed since staging: the precomputed UBR is
		// exactly what SE would produce now, at zero additional cost.
		newB = staged.ubr
		st.SETime += staged.dur
		st.SE.Add(staged.stats)
	case seWarmStart:
		// Earlier inserts in the batch intersect the staged bound; the cell
		// can only have shrunk, so refine from the staged UBR (Lemma 9).
		st.SETime += staged.dur
		st.SE.Add(staged.stats)
		t0 := time.Now()
		var seStats core.Stats
		newB, seStats = core.ComputeUBRAfterInsert(w.db, w.regionTree, o, staged.ubr, cfg.SE)
		st.SETime += time.Since(t0)
		st.SE.Add(seStats)
	default: // seCold
		t0 := time.Now()
		var seStats core.Stats
		newB, seStats = core.ComputeUBR(w.db, w.regionTree, o, cfg.SE)
		st.SETime += time.Since(t0)
		st.SE.Add(seStats)
	}

	// Step 2: candidate affected set from the primary index.
	ids, err := w.primary.RangeIDs(newB)
	if err != nil {
		return st, geom.Rect{}, err
	}
	st.Examined = len(ids)

	for id := range ids {
		oid := uncertain.ID(id)
		if oid == o.ID {
			continue
		}
		other := w.db.Get(oid)
		if other == nil {
			continue
		}
		// Lemma 8(3): objects whose regions overlap u(o') are unaffected.
		if other.Region.Intersects(o.Region) {
			continue
		}
		oldB, ok := w.lookupUBR(id)
		if !ok {
			continue
		}
		// Lemma 8(2) via UBRs: disjoint bounding rectangles imply disjoint
		// PV-cells, hence unaffected.
		if !oldB.Intersects(newB) {
			continue
		}
		st.Affected++

		// Step 3: warm-started SE (h = old UBR).
		t1 := time.Now()
		updated, seAffected := core.ComputeUBRAfterInsert(w.db, w.regionTree, other, oldB, cfg.SE)
		st.SETime += time.Since(t1)
		st.SE.Add(seAffected)
		if updated.Equal(oldB) {
			st.Unchanged++
			continue
		}

		// Step 4: drop entries from leaves no longer covered, refresh record.
		t2 := time.Now()
		if _, err := w.primary.RemoveDiff(id, oldB, updated); err != nil {
			return st, geom.Rect{}, err
		}
		rec := record{UBR: updated, Region: other.Region, Instances: other.Instances}
		if err := w.putRecord(id, rec); err != nil {
			return st, geom.Rect{}, err
		}
		w.adjMarkChanged(id)
		st.IndexTime += time.Since(t2)
	}

	t3 := time.Now()
	err = w.addObject(o, newB)
	w.adjMarkChanged(uint32(o.ID))
	st.IndexTime += time.Since(t3)
	return st, newB, err
}

// rebuildAdjacency materializes the UBR-adjacency graph from scratch: one
// row per object, listing every other object whose stored UBR intersects
// its own. Used at construction only; the write path never calls it
// (updateAdjacency patches rows incrementally). The octree range query finds every intersecting UBR
// because two intersecting UBRs share a point, hence a leaf cell, hence
// entries in a common leaf.
func rebuildAdjacency(db *uncertain.DB, primary *octree.Tree, lookup func(uint32) (geom.Rect, bool)) (*adjgraph.Graph, error) {
	objs := db.Objects()
	ubrs := make(map[uint32]geom.Rect, len(objs))
	for _, o := range objs {
		ubr, ok := lookup(uint32(o.ID))
		if !ok {
			return nil, fmt.Errorf("pvindex: object %d has no stored UBR during adjacency rebuild", o.ID)
		}
		ubrs[uint32(o.ID)] = ubr
	}
	g := adjgraph.New()
	for _, o := range objs {
		id := uint32(o.ID)
		ubr := ubrs[id]
		ids, err := primary.RangeIDs(ubr)
		if err != nil {
			return nil, err
		}
		ns := make([]uint32, 0, len(ids))
		for nid := range ids {
			if nid == id {
				continue
			}
			if nubr, ok := ubrs[nid]; ok && nubr.Intersects(ubr) {
				ns = append(ns, nid)
			}
		}
		g.Set(id, ubr, ns)
	}
	return g, nil
}

// referenceBuildParallel is BuildParallel as it was before the primary index
// was bulk-loaded: every object through addObject — its record, then an
// octree.Insert — in database order.
func referenceBuildParallel(db *uncertain.DB, cfg Config, workers int) (*Index, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Store == nil {
		cfg.Store = pagestore.New(pagestore.DefaultPageSize)
	}
	if cfg.MemBudget <= 0 {
		cfg.MemBudget = 5 << 20
	}
	if cfg.Fanout <= 0 {
		cfg.Fanout = rtree.DefaultFanout
	}
	ix := &Index{store: cfg.Store, cfg: cfg}
	ix.initRuntime()

	start := time.Now()
	w, err := ix.bootstrapWorking(db)
	if err != nil {
		return nil, err
	}

	objs := db.Objects()
	ubrs := make([]geom.Rect, len(objs))
	seStats := make([]core.Stats, len(objs))

	// NN iterators on the shared R*-tree mutate its LeafIO counter but not
	// its structure; structural reads are safe concurrently.
	parallelFor(workers, len(objs), func(i int) {
		ubrs[i], seStats[i] = core.ComputeUBR(db, w.regionTree, objs[i], cfg.SE)
	})

	t0 := time.Now()
	for i, o := range objs {
		ix.Build.SE.Add(seStats[i])
		ix.Build.CSetTime += seStats[i].CSetTime
		ix.Build.UBRTime += seStats[i].UBRTime
		ix.Build.CSetSizeSum += seStats[i].CSetSize
		if err := w.addObject(o, ubrs[i]); err != nil {
			return nil, err
		}
		w.adjMarkChanged(uint32(o.ID))
		ix.Build.Objects++
	}
	ix.Build.InsertTime = time.Since(t0)
	// Every object is a changed row of the empty graph.
	if err := w.updateAdjacency(); err != nil {
		return nil, err
	}
	if !cfg.Refine.Disabled {
		// The n rows just built are done: what the refinement pass marks
		// changed is what it shrank. It reuses the same worker pool for its
		// escalated SE runs; GOMAXPROCS is already the pool width parallelSE
		// uses.
		clear(w.adjChanged)
		st, err := ix.refineAll(w)
		if err != nil {
			return nil, err
		}
		ix.Build.SE.Refine.Add(st)
	}
	ix.Build.Total = time.Since(start)
	ix.installBootstrap(w, 0)
	return ix, nil
}

// referenceGraph is the graph rebuildAdjacency makes of the current version's
// stored UBRs.
func referenceGraph(ix *Index) (*adjgraph.Graph, error) {
	v := ix.current.Load()
	return rebuildAdjacency(v.db, v.primary, func(id uint32) (geom.Rect, bool) { return ix.UBR(uncertain.ID(id)) })
}

// legacyImage re-encodes a PVIDX4 image in the types it had before the
// adjacency graph stopped tracking its maximum object diameter (MaxDiag, the
// slack term of the retired group-NN graph expansion), with maxDiag in that
// field. The types are kept verbatim under their old names — gob writes a
// struct's name into the stream — so the bytes differ from cur by the field
// alone.
func legacyImage(t *testing.T, cur []byte, maxDiag float64) []byte {
	t.Helper()
	type Image struct {
		Dim     int
		MaxDiag float64
		IDs     []uint32
		UBRs    []float64
		Lens    []uint32
		Flat    []uint32
	}
	type indexImage struct {
		Magic           string
		SE              core.Options
		MemBudget       int
		Fanout          int
		Objects         int
		RecordCacheSize int
		WALSeq          uint64
		Store           *pagestore.Image
		Primary         *octree.Image
		Secondary       *exthash.Image
		Adjacency       *Image
		// Refine and RefineThreshold restore the refinement subsystem:
		// the config the UBRs were refined under and the hub-score cutoff the
		// incremental write path re-refines against (0 = unset).
		Refine          RefineConfig
		RefineThreshold float64
	}
	var img indexImage
	if err := gob.NewDecoder(bytes.NewReader(cur)).Decode(&img); err != nil {
		t.Fatal(err)
	}
	img.Adjacency.MaxDiag = maxDiag
	var old bytes.Buffer
	if err := gob.NewEncoder(&old).Encode(&img); err != nil {
		t.Fatal(err)
	}
	return old.Bytes()
}
