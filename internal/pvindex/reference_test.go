package pvindex

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"encoding/gob"
	"io"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

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
	w := &working{ix: ix, db: base.db, regionTree: base.regionTree, witnesses: base.witnesses}
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
		w.setWitnesses(uint32(o.ID), lists[i])
		ix.Build.Objects++
	}
	ix.Build.InsertTime = time.Since(t0)
	ix.Build.Total = time.Since(start)
	ix.installBootstrap(w, 0)
	return ix, nil
}

// bruteMasses is every live object's window mass in ix's current version
// from the octree's image: over the leaf cells (the domain halved down the node list) that its
// stored UBR intersects, the entries each leaf's pages hold, less its own.
func bruteMasses(t *testing.T, ix *Index) map[uint32]int {
	t.Helper()
	v := ix.current.Load()
	img := v.primary.Image()
	type leaf struct {
		cell    geom.Rect
		entries int
	}
	var leaves []leaf
	var walk func(idx int32, cell geom.Rect)
	walk = func(idx int32, cell geom.Rect) {
		n := img.Nodes[idx]
		for mask, c := range n.Children {
			child := cell.Clone()
			for j := range child.Lo {
				if mid := (cell.Lo[j] + cell.Hi[j]) / 2; mask&(1<<j) != 0 {
					child.Lo[j] = mid
				} else {
					child.Hi[j] = mid
				}
			}
			walk(c, child)
		}
		if len(n.Children) > 0 {
			return
		}
		l := leaf{cell: cell}
		for p := pagestore.PageID(n.FirstPage); p != 0; {
			buf, err := ix.store.View(p)
			if err != nil {
				t.Fatal(err)
			}
			l.entries += int(binary.LittleEndian.Uint32(buf[4:8]))
			p = pagestore.PageID(binary.LittleEndian.Uint32(buf[0:4]))
		}
		leaves = append(leaves, l)
	}
	walk(0, geom.Rect{Lo: img.DomainLo, Hi: img.DomainHi})
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
// size and five refinement knobs — kept verbatim under their old names, since
// gob writes a struct's name into the stream — with the graph ix's stored UBRs
// induce and the knobs at their old defaults. maxDiag and cacheSize fill the graph's retired
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
		Store           *pagestore.Image
		Primary         *octree.Image
		Secondary       *exthash.Image
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
