package pvindex

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"encoding/gob"
	"io"
	"math"
	"slices"
	"testing"
	"time"

	"pvoronoi/internal/core"
	"pvoronoi/internal/domination"
	"pvoronoi/internal/geom"
	"pvoronoi/internal/pagestore"
	"pvoronoi/internal/rtree"
	"pvoronoi/internal/uncertain"
)

// The write paths the one write path replaced, kept as they were so that
// differential_test.go can hold the new code to them: the op-at-a-time
// apply loop with its three SE modes and impact rectangles, the insert it
// drove, and the insert-at-a-time build loop the octree bulk load replaced.

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
	list  []uint32 // its witnesses
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
	w := &working{ix: ix, state: state{db: base.db, regionTree: base.regionTree, witnesses: base.witnesses}}
	ix.parallelSE(len(idxs), func(k int) {
		i := idxs[k]
		t0 := time.Now()
		staged[i].ubr, staged[i].list, staged[i].stats = w.se(ups[i].Object, seStart{})
		staged[i].dur = time.Since(t0)
	})
	return staged
}

// referenceApplyBatch is ApplyBatch as it was, minus the log: validate,
// stage, apply through the old loop, publish. Its SE jobs refine as
// production's do (working.se).
func (ix *Index) referenceApplyBatch(ups []Update) error {
	ix.writerMu.Lock()
	defer ix.writerMu.Unlock()
	base := ix.current.Load()
	if err := validateBatch(base.db, ups); err != nil {
		return err
	}
	staged := ix.referenceStage(base, ups)
	w := ix.newWorking(base)
	if _, err := w.referenceApply(ups, staged); err != nil {
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
		sts, err := w.applyInserts(ups)
		w.mergeWitnessed()
		return sts, err
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
			w.mergeWitnessed()
			stats = append(stats, st)
			impacts = append(impacts, impact{rect: newB})
		case OpDelete:
			victimUBR, _ := w.lookupUBR(uint32(u.ID)) // applyDelete returned it then
			st, err := w.applyDelete(u.ID)
			if err != nil {
				return stats, err
			}
			w.mergeWitnessed()
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

	if err := w.db.Add(o); err != nil {
		return st, geom.Rect{}, err
	}
	w.regionTree.Insert(rtree.Item{Rect: o.Region, ID: uint32(o.ID)})

	// Step 1: UBR of the newcomer over the updated database. The PV-cells
	// of affected objects can only shrink (Lemma 9), so their UBRs are
	// recomputed warm-started from the old UBR as the upper bound.
	var newB geom.Rect
	var list []uint32
	if staged == nil {
		mode = seCold
	}
	switch mode {
	case seUseStaged:
		// Nothing relevant changed since staging: the precomputed UBR is
		// exactly what SE would produce now, at zero additional cost.
		newB, list = staged.ubr, staged.list
		st.SETime += staged.dur
		st.SE.Add(staged.stats)
	case seWarmStart:
		// Earlier inserts in the batch intersect the staged bound; the cell
		// can only have shrunk, so refine from the staged UBR (Lemma 9) over
		// the staged witnesses.
		st.SETime += staged.dur
		st.SE.Add(staged.stats)
		t0 := time.Now()
		var seStats core.Stats
		newB, list, seStats = w.se(o, seStart{prev: staged.ubr, has: staged.list})
		st.SETime += time.Since(t0)
		st.SE.Add(seStats)
	default: // seCold
		t0 := time.Now()
		var seStats core.Stats
		newB, list, seStats = w.se(o, seStart{})
		st.SETime += time.Since(t0)
		st.SE.Add(seStats)
	}

	// Step 2: candidate affected set from the primary index.
	ids, err := w.primary.RangeIDs(newB, nil)
	if err != nil {
		return st, geom.Rect{}, err
	}
	st.Examined = len(ids)

	for _, id := range ids {
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

		// Step 3: warm-started SE (h = old UBR) over the row's witnesses and
		// the newcomer.
		t1 := time.Now()
		updated, updatedW, seAffected := w.se(other, seStart{prev: oldB, has: w.witnesses.get(id), extra: []uint32{uint32(o.ID)}})
		st.SETime += time.Since(t1)
		st.SE.Add(seAffected)
		w.setWitnesses(id, updatedW)
		if updated.Equal(oldB) {
			st.Unchanged++
			continue
		}

		// Step 4: drop entries from leaves no longer covered, refresh record.
		t2 := time.Now()
		if err := w.moveRow(other, oldB, updated); err != nil {
			return st, geom.Rect{}, err
		}
		st.IndexTime += time.Since(t2)
	}

	t3 := time.Now()
	err = w.addObject(o, newB)
	w.setWitnesses(uint32(o.ID), list)
	st.IndexTime += time.Since(t3)
	return st, newB, err
}

// referenceBuildParallel is BuildParallel as it was before the primary index
// was bulk-loaded: every object through addObject — its UBR, then an
// octree.Insert — in database order.
func referenceBuildParallel(db *uncertain.DB, cfg Config, workers int) (*Index, error) {
	ix := newIndex(cfg, workers)
	start := time.Now()
	w, err := ix.bootstrapWorking(db)
	if err != nil {
		return nil, err
	}

	objs := db.Objects()
	ubrs := make([]geom.Rect, len(objs))
	lists := make([][]uint32, len(objs))
	seStats := make([]core.Stats, len(objs))

	// NN iterators only read the shared R*-tree, so they run concurrently.
	parallelFor(workers, len(objs), func(i int) {
		ubrs[i], lists[i], seStats[i] = w.se(objs[i], seStart{})
	})

	t0 := time.Now()
	for i, o := range objs {
		ix.Build.SE.Add(seStats[i])
		if err := w.addObject(o, ubrs[i]); err != nil {
			return nil, err
		}
		w.witnesses.set(uint32(o.ID), lists[i])
		ix.Build.Objects++
	}
	w.witnessed = transpose(w.witnesses)
	ix.Build.InsertTime = time.Since(t0)
	ix.Build.Total = time.Since(start)
	ix.current.Store(w.seal(0))
	return ix, nil
}

// bruteMasses is every live object's window mass in ix's current version
// from the octree's leaves: over the leaf cells (the domain halved down to
// each leaf's depth, leaves in depth-first order) that its stored UBR
// intersects, the entries each leaf's pages hold, less its own.
func bruteMasses(t *testing.T, ix *Index) map[uint32]int {
	t.Helper()
	v := ix.current.Load()
	type leaf struct {
		depth   int
		cell    geom.Rect
		entries int
	}
	var leaves []leaf
	v.primary.Leaves(func(depth int, p pagestore.PageID) {
		l := leaf{depth: depth}
		for p != 0 {
			buf, err := ix.store.View(p)
			if err != nil {
				t.Fatal(err)
			}
			l.entries += int(binary.LittleEndian.Uint32(buf[4:8]))
			p = pagestore.PageID(binary.LittleEndian.Uint32(buf[0:4]))
		}
		leaves = append(leaves, l)
	})
	next := 0
	var walk func(cell geom.Rect, depth int)
	walk = func(cell geom.Rect, depth int) {
		if leaves[next].depth == depth {
			leaves[next].cell = cell
			next++
			return
		}
		for mask := range 1 << len(cell.Lo) {
			child := cell.Clone()
			for j := range child.Lo {
				if mid := (cell.Lo[j] + cell.Hi[j]) / 2; mask&(1<<j) != 0 {
					child.Lo[j] = mid
				} else {
					child.Hi[j] = mid
				}
			}
			walk(child, depth+1)
		}
	}
	walk(v.primary.Domain(), 0)
	mass := make(map[uint32]int, v.db.Len())
	for _, o := range v.db.Objects() {
		ubr, _ := v.ubr(o.ID)
		for _, l := range leaves {
			if l.cell.Intersects(ubr) {
				mass[uint32(o.ID)] += l.entries - 1
			}
		}
	}
	return mass
}

// topHubs is the whole-index selection refinement made before its rule was
// per row: the 2 % fattest rows by UBR volume × weight among those of weight
// ≥ 16 with a positive score, and the weakest selected score (+Inf when none
// qualifies).
func topHubs(v *version, weights map[uint32]int) ([]uint32, float64) {
	type scoredRow struct {
		id    uint32
		score float64
	}
	var rows []scoredRow
	for id, n := range weights {
		ubr, _ := v.ubr(uncertain.ID(id))
		if s := ubr.Volume() * float64(n); n >= 16 && s > 0 {
			rows = append(rows, scoredRow{id, s})
		}
	}
	slices.SortFunc(rows, func(a, b scoredRow) int {
		if c := cmp.Compare(b.score, a.score); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	n := min(int(math.Ceil(0.02*float64(v.db.Len()))), len(rows))
	if n == 0 {
		return nil, math.Inf(1)
	}
	ids := make([]uint32, n)
	for i := range ids {
		ids[i] = rows[i].id
	}
	return ids, rows[n-1].score
}

// referenceHubs is the selection a whole-index refinement pass made from the
// brute-force window masses (bruteMasses).
func referenceHubs(t *testing.T, ix *Index) []uint32 {
	t.Helper()
	ids, _ := topHubs(ix.current.Load(), bruteMasses(t, ix))
	return ids
}

// loadOldImage loads old, an image oldImage wrote, over ix's database; the
// refinement cutoff it carries is skipped.
func loadOldImage(t *testing.T, ix *Index, old io.Reader) *Index {
	t.Helper()
	loaded, err := LoadFrom(old, ix.DB())
	if err != nil {
		t.Fatal(err)
	}
	return loaded
}

// oldImage re-encodes the image cur of ix, its witness lists included, in
// the types it had while the index kept an adjacency graph, a record-cache
// size, five refinement knobs and a stored reverse witness index — kept
// verbatim under their old names, since gob writes a struct's name into the
// stream — with the graph ix's stored UBRs induce, ix's reverse index and the
// knobs at their old defaults. maxDiag and cacheSize fill the graph's retired
// diameter field and the retired cache size; gob leaves either out when 0.
func oldImage(t testing.TB, ix *Index, cur []byte, maxDiag float64, cacheSize int) []byte {
	t.Helper()
	type Image struct {
		Dim     int
		MaxDiag float64
		IDs     []uint32
		UBRs    []float64
		Lens    []uint32
		Flat    []uint32
	}
	type RefineConfig struct {
		Disabled    bool
		TopFraction float64
		MaxRows     int
		DepthBoost  int
		CSetFactor  int
		MinDegree   int
	}
	type indexImage struct {
		Magic           string
		SE              core.Options
		MemBudget       int
		Fanout          int
		Objects         int
		RecordCacheSize int
		WALSeq          uint64
		Pages           *struct{ PageSize int }
		UBRs            *ubrImage
		Adjacency       *Image
		// Refine and RefineThreshold restore the refinement subsystem:
		// the config the UBRs were refined under and the hub-score cutoff the
		// incremental write path re-refines against (0 = unset).
		Refine               RefineConfig
		RefineThreshold      float64
		Witnesses, Witnessed *listsImage
	}
	var img indexImage
	if err := gob.NewDecoder(bytes.NewReader(cur)).Decode(&img); err != nil {
		t.Fatal(err)
	}
	img.RecordCacheSize = cacheSize
	img.Refine = RefineConfig{TopFraction: 0.02, DepthBoost: 4, CSetFactor: 4, MinDegree: 16}

	v := ix.current.Load()
	img.Witnessed = v.witnessed.image()
	if _, deg := topHubs(v, v.windowDegrees()); !math.IsInf(deg, 1) {
		img.RefineThreshold = deg // the cutoff in the old score's degree units
	}
	objs := slices.Clone(v.db.Objects())
	slices.SortFunc(objs, func(a, b *uncertain.Object) int { return cmp.Compare(a.ID, b.ID) })
	ubrs := make([]geom.Rect, len(objs))
	g := &Image{Dim: v.db.Dim(), MaxDiag: maxDiag}
	for i, o := range objs {
		ubrs[i], _ = v.ubr(o.ID)
		g.IDs = append(g.IDs, uint32(o.ID))
		g.UBRs = append(append(g.UBRs, ubrs[i].Lo...), ubrs[i].Hi...)
	}
	for i := range objs {
		n := 0
		for j := range objs {
			if j != i && ubrs[j].Intersects(ubrs[i]) {
				g.Flat = append(g.Flat, uint32(objs[j].ID))
				n++
			}
		}
		g.Lens = append(g.Lens, uint32(n))
	}
	img.Adjacency = g
	var old bytes.Buffer
	if err := gob.NewEncoder(&old).Encode(&img); err != nil {
		t.Fatal(err)
	}
	return old.Bytes()
}

// referenceSetWitnesses is setWitnesses as it was before the reverse index
// was patched once per op: it stores id's witness list and patches the
// reverse index at once, member by member, each patch a fresh list.
func (w *working) referenceSetWitnesses(id uint32, list []uint32) {
	old := w.witnesses.get(id)
	w.witnesses.set(id, list)
	for _, v := range old {
		if _, kept := slices.BinarySearch(list, v); !kept {
			w.witnessed.remove(v, id)
		}
	}
	for _, v := range list {
		if _, had := slices.BinarySearch(old, v); !had {
			w.witnessed.add(v, id)
		}
	}
}

// add puts x into id's list and remove takes it out, as fresh lists.
func (l *idLists) add(id, x uint32) {
	if i, found := slices.BinarySearch(l.get(id), x); !found {
		l.set(id, slices.Insert(slices.Clip(l.get(id)), i, x))
	}
}

func (l *idLists) remove(id, x uint32) {
	if i, found := slices.BinarySearch(l.get(id), x); found {
		l.set(id, slices.Delete(slices.Clone(l.get(id)), i, i+1))
	}
}

// referenceSE is working.se as it was before an insert's warm run began with
// the newcomers alone: one run over W(o) ∪ the newcomers from prev, the run
// every affected row got, whether the newcomers cut it or not.
func (w *working) referenceSE(o *uncertain.Object, from seStart) (geom.Rect, []uint32, core.Stats) {
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
	case insert:
		sc.cset = w.membersByDistance(sc, sc.ids, o)
	default: // the whole C-set stays in the list: the proof of the delete rule needs it
		sc.cset = w.membersByDistance(sc, sc.ids, o)
		l, h, sched, keep = from.prev.Clone(), from.prev.Union(from.victimUBR), domination.Bisect, sc.ids
	}
	csetTime := time.Since(t0)
	floor := l.Clone()
	ubr, wit, st := core.Run(sc.cset, o.Region, l, h, sched, opts.Delta, opts.MaxDepth, sc.wit[:0])
	st.CSetTime = csetTime
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
