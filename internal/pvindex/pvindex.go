// Package pvindex assembles the paper's PV-index (§VI): UBRs computed by the
// SE algorithm, organized in an octree primary index for point-query pruning
// and an in-memory table keyed by object ID holding each object's UBR (the
// paper's hashed secondary index, whose pdf copy is the version's database).
// It implements PNNQ Step 1 (retrieval of objects with non-zero
// qualification probability) and the incremental insert/delete maintenance
// of §VI-B.
package pvindex

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pvoronoi/internal/core"
	"pvoronoi/internal/geom"
	"pvoronoi/internal/octree"
	"pvoronoi/internal/pagestore"
	"pvoronoi/internal/rtree"
	"pvoronoi/internal/uncertain"
	"pvoronoi/internal/wal"
)

// Config bundles the index's resource parameters (Table I defaults).
type Config struct {
	// Store is the simulated disk; a fresh 4 KB-page store if nil.
	Store *pagestore.Store
	// MemBudget is the primary index's non-leaf memory allowance
	// (paper default 5 MB).
	MemBudget int
	// Fanout of the helper R*-tree used during construction.
	Fanout int
	// SE are the Shrink-and-Expand parameters.
	SE core.Options
}

// DefaultConfig returns the paper's defaults.
func DefaultConfig() Config {
	return Config{MemBudget: 5 << 20, Fanout: rtree.DefaultFanout, SE: core.DefaultOptions()}
}

// BuildStats aggregates construction cost, feeding Figs. 10(b)–10(f).
type BuildStats struct {
	Objects    int
	Total      time.Duration
	InsertTime time.Duration // primary index and UBR table insertion portion
	SE         core.Stats    // summed over objects: C-set and SE times, C-set sizes
}

// Index is a built PV-index over a database, served through epoch-based
// MVCC: the entire index state — database, octree, UBR table, witness lists,
// region R*-tree, WAL position — lives in an immutable version published
// via an atomic pointer. Queries pin the current version with two atomic
// operations and never take a lock, so they proceed at full speed while
// ApplyBatch builds the next version copy-on-write and publishes it with a
// single pointer swap. Retired versions are reclaimed by an epoch/refcount
// sweep once their last in-flight reader drains (see version.go).
type Index struct {
	// current is the published version every new reader pins.
	current atomic.Pointer[version]

	store *pagestore.Store
	cfg   Config

	// writerMu serializes whole update batches (validate + log + apply +
	// publish), so what a batch was validated against and its WAL order can
	// never interleave with another writer's. Readers never touch it.
	writerMu sync.Mutex
	// wal, when attached, receives every update batch before it applies.
	// Mutated only via AttachWAL before serving writers.
	wal *wal.Log

	// dmg, guarded by dmgMu, is set when a WAL-logged batch failed to
	// apply: the in-memory rollback was clean (the working version is
	// simply discarded), but the log now holds a batch the caller was told
	// failed. Further writes and persistence snapshots are refused so the
	// divergence can never compound or become durable; queries keep
	// serving the last published version.
	dmgMu sync.Mutex
	dmg   error

	// scratch pools per-query working memory for the Step-1 hot loop.
	scratch sync.Pool
	// pool is the SE pool's width, every fan-out's (parallelSE): fixed when
	// the index is built or loaded, never re-read from GOMAXPROCS, so a
	// server may lend the write path a spare P (cmd/pvserve) without it
	// becoming one more SE worker.
	pool int

	// reclaimMu guards the retired-version queue (version.go).
	reclaimMu sync.Mutex
	retired   []*version
	reclaims  int64

	// Refinement lifetime counters (refine.go, see RefineCounters).
	refRows      atomic.Int64
	refUnchanged atomic.Int64
	refBudget    atomic.Int64
	// Write-path lifetime counters (see AdjacencyStats).
	rowsRecomputed atomic.Int64
	rowsPatched    atomic.Int64

	// Build records the construction cost profile.
	Build BuildStats
}

// queryScratch is the reusable working set of one possibleNN evaluation:
// the decoded leaf entries, the pre-filter candidate list, and the dedup
// set. Pooled so the Step-1 hot loop allocates only its returned survivors.
type queryScratch struct {
	entries []octree.Entry
	cands   []Candidate
	seen    map[uint32]struct{}
}

// working is the writer's mutable view while it builds the next version:
// a cloned database and copy-on-write handles over the rest of its state,
// the octree's deferred-free list, and the reverse-index patches of the op
// in progress. In bootstrap mode (build, load) there is no predecessor
// version: structures mutate in place, and install derives the reverse
// index.
type working struct {
	ix    *Index
	epoch uint64 // epoch this working set publishes as
	state

	freed   []pagestore.PageID
	patches []revPatch // setWitnesses' queue, merged at the end of each op
}

// buildRegionTree constructs the region R*-tree of a database. It is a
// variable only so that a test can substitute an insertion-built tree and
// show that the index does not depend on the tree's shape.
var buildRegionTree = core.BuildRegionTree

// bootstrapWorking creates the working set a build or a load starts from
// over db: its region tree built, the tables and the octree empty, no
// reverse index yet.
func (ix *Index) bootstrapWorking(db *uncertain.DB) (*working, error) {
	w := &working{ix: ix, epoch: 1, state: state{db: db, ubrs: newUBRTable(db.Dim()), witnesses: newIDLists()}}
	var err error
	w.primary, err = octree.New(octree.Config{
		Domain:    db.Domain,
		Store:     ix.store,
		Lookup:    w.lookupUBR,
		MemBudget: ix.cfg.MemBudget,
	})
	if err != nil {
		return nil, err
	}
	w.regionTree = buildRegionTree(db, ix.cfg.Fanout)
	return w, nil
}

// newWorking derives the writer's view for the next version from base:
// O(n) only in the database clone's object slice (pointers); the trees and
// tables start as copy-on-write handles sharing every node and page.
func (ix *Index) newWorking(base *version) *working {
	w := &working{ix: ix, epoch: base.epoch + 1, state: state{
		db:         base.db.Clone(),
		ubrs:       base.ubrs.clone(),
		regionTree: base.regionTree.CloneCOW(),
		witnesses:  base.witnesses.clone(),
		witnessed:  base.witnessed.clone(),
	}}
	w.primary = base.primary.CloneCOW(w.lookupUBR, &w.freed)
	return w
}

// abort discards a working set after a mid-apply failure: pages it
// allocated are invisible to every published version and return to the
// store immediately; its deferred frees are dropped (the old version keeps
// serving them). The published state is untouched — MVCC makes a failed
// batch a clean rollback.
func (w *working) abort() {
	w.primary.AbortCOW()
}

// seal freezes the working set into a publishable version.
func (w *working) seal(walSeq uint64) *version {
	return &version{epoch: w.epoch, walSeq: walSeq, state: w.state}
}

// publishWorking seals w and swaps it in as the current version.
func (ix *Index) publishWorking(w *working, walSeq uint64) {
	ix.publish(w.seal(walSeq), w.freed)
}

// Build constructs the PV-index for every object in db. The database is
// adopted as version 1's snapshot: subsequent ApplyBatch/Insert/Delete
// calls publish new versions with cloned bookkeeping, so read the current
// database through Index.DB() or View rather than the original pointer.
// Its objects are adopted too: Step 2 reads their instances in place, so no
// object may be mutated afterwards. It is BuildParallel with one worker,
// except that later writes fan out on a GOMAXPROCS-wide SE pool, as a loaded
// index's do.
func Build(db *uncertain.DB, cfg Config) (*Index, error) {
	ix, err := BuildParallel(db, cfg, 1)
	if err == nil {
		ix.pool = runtime.GOMAXPROCS(0)
	}
	return ix, err
}

// lookupUBR serves octree leaf splits (and the update algorithms' affected-
// set filters) from the working UBR table.
func (w *working) lookupUBR(id uint32) (geom.Rect, bool) { return w.ubrs.get(id) }

// addObject stores o's UBR and enters o into the primary index.
func (w *working) addObject(o *uncertain.Object, ubr geom.Rect) error {
	w.ubrs.set(uint32(o.ID), ubr)
	return w.primary.Insert(uint32(o.ID), o.Region, ubr)
}

// moveRow rewrites o's UBR and octree entries from oldB to newB, leaving the
// leaves only oldB reaches and joining those only newB reaches: a warm run
// only shrinks or only grows a UBR, a cold reset can do both.
func (w *working) moveRow(o *uncertain.Object, oldB, newB geom.Rect) error {
	id := uint32(o.ID)
	if !newB.ContainsRect(oldB) {
		if _, err := w.primary.RemoveDiff(id, oldB, newB); err != nil {
			return err
		}
	}
	w.ubrs.set(id, newB)
	if !oldB.ContainsRect(newB) {
		return w.primary.InsertDiff(id, o.Region, newB, oldB)
	}
	return nil
}

// UBR returns the stored UBR of an object.
func (ix *Index) UBR(id uncertain.ID) (geom.Rect, bool) {
	v := ix.pin()
	defer ix.unpin(v)
	return v.ubr(id)
}

// Store exposes the underlying page store (for I/O accounting).
func (ix *Index) Store() *pagestore.Store { return ix.store }

// PrimaryStats reports the octree's shape as of the current version.
func (ix *Index) PrimaryStats() octree.Stats {
	v := ix.pin()
	defer ix.unpin(v)
	return v.primary.TreeStats()
}

// DB returns the current version's database. It is immutable — writers
// publish new versions instead of mutating it — so reading it is safe, but
// the pointer changes with every applied batch; pin a version (View)
// when multiple reads must agree.
func (ix *Index) DB() *uncertain.DB { return ix.current.Load().db }

// View runs fn over a pinned version's database — a consistent snapshot
// that no concurrent writer can change, acquired without any lock.
func (ix *Index) View(fn func(db *uncertain.DB) error) error {
	v := ix.pin()
	defer ix.unpin(v)
	return fn(v.db)
}

// Candidate is a PNNQ Step-1 survivor: an object with non-zero probability
// of being the query's nearest neighbor.
type Candidate struct {
	ID      uncertain.ID
	Region  geom.Rect
	MinDist float64
	MaxDist float64
}

// ErrNonFinitePoint is returned by every query for a point with a NaN or
// infinite coordinate: no distance to it is ordered, so min/max pruning and
// the Step-2 cutoff would silently answer with nothing.
var ErrNonFinitePoint = errors.New("pvindex: query point has a non-finite coordinate")

func checkFinite(p geom.Point) error {
	if !p.IsFinite() {
		return ErrNonFinitePoint
	}
	return nil
}

// PossibleNN evaluates PNNQ Step 1: it walks the primary index to the leaf
// containing q and prunes the leaf's candidate list by min/max distance.
// The result is exactly the set of objects whose PV-cells contain q.
func (ix *Index) PossibleNN(q geom.Point) ([]Candidate, error) {
	v := ix.pin()
	defer ix.unpin(v)
	cands, _, err := ix.possibleNNAt(v, q)
	return cands, err
}

// PossibleNNIO is PossibleNN plus the number of primary-index leaf pages
// read — the exact per-query leaf I/O, attributable to this call even under
// concurrent traffic.
func (ix *Index) PossibleNNIO(q geom.Point) ([]Candidate, int, error) {
	v := ix.pin()
	defer ix.unpin(v)
	return ix.possibleNNAt(v, q)
}

// possibleNNAt is PossibleNN against a pinned version, returning the leaf
// pages read. All intermediate state — decoded leaf entries, the dedup set,
// the pre-filter candidate list — lives in a pooled scratch; only the
// surviving candidates are materialized, with their regions deep-copied
// into a single backing array so the result owns no pooled memory.
func (ix *Index) possibleNNAt(v *version, q geom.Point) ([]Candidate, int, error) {
	if err := checkFinite(q); err != nil {
		return nil, 0, err
	}
	sc := ix.scratch.Get().(*queryScratch)
	defer ix.scratch.Put(sc)

	entries, leafIO, err := v.primary.PointQueryInto(q, sc.entries[:0])
	sc.entries = entries
	if err != nil || len(entries) == 0 {
		return nil, leafIO, err
	}
	// Deduplicate (an object appears once per overlapping leaf page set —
	// the point query hits one leaf, but defensive against double inserts).
	clear(sc.seen)
	cands := sc.cands[:0]
	bestMax := -1.0
	for i := range entries {
		e := &entries[i]
		if _, dup := sc.seen[e.ID]; dup {
			continue
		}
		sc.seen[e.ID] = struct{}{}
		c := Candidate{
			ID:      uncertain.ID(e.ID),
			Region:  e.Region,
			MinDist: e.Region.MinDist(q),
			MaxDist: e.Region.MaxDist(q),
		}
		if bestMax < 0 || c.MaxDist < bestMax {
			bestMax = c.MaxDist
		}
		cands = append(cands, c)
	}
	kept := 0
	for i := range cands {
		if cands[i].MinDist <= bestMax {
			cands[kept] = cands[i]
			kept++
		}
	}
	survivors := cands[:kept]
	sc.cands = cands
	sort.Slice(survivors, func(i, j int) bool { return survivors[i].ID < survivors[j].ID })
	if kept == 0 {
		return nil, leafIO, nil
	}

	// Materialize: the survivors' regions still alias pooled octree entry
	// memory; copy them out with one coordinate backing array.
	dim := len(q)
	out := make([]Candidate, kept)
	coords := make([]float64, 2*dim*kept)
	for i := range survivors {
		out[i] = survivors[i]
		lo := geom.Point(coords[:dim:dim])
		coords = coords[dim:]
		hi := geom.Point(coords[:dim:dim])
		coords = coords[dim:]
		copy(lo, survivors[i].Region.Lo)
		copy(hi, survivors[i].Region.Hi)
		out[i].Region = geom.Rect{Lo: lo, Hi: hi}
	}
	return out, leafIO, nil
}

// QuerySnapshot is an atomic PNNQ read: the Step-1 candidate set, each
// candidate's pdf instances (parallel slice), and the number of
// primary-index leaf pages read — all from one pinned version so a
// concurrent writer can never remove a candidate between Step 1 and the
// Step-2 data access. The instance slices are the version's own objects' —
// treat them as immutable.
type QuerySnapshot struct {
	Candidates []Candidate
	Instances  [][]uncertain.Instance
	LeafIO     int
}

// Snapshot evaluates Step 1 and takes every candidate's instances from the
// same pinned version. Full-query callers (Step 2 probability computation)
// run on the snapshot afterwards; writers are never blocked.
func (ix *Index) Snapshot(q geom.Point) (*QuerySnapshot, error) {
	v := ix.pin()
	defer ix.unpin(v)
	cands, leafIO, err := ix.possibleNNAt(v, q)
	if err != nil {
		return nil, err
	}
	snap := &QuerySnapshot{
		Candidates: cands,
		Instances:  make([][]uncertain.Instance, len(cands)),
		LeafIO:     leafIO,
	}
	for i, c := range cands {
		if snap.Instances[i], err = v.instances(c.ID); err != nil {
			return nil, err
		}
	}
	return snap, nil
}

// UpdateStats reports the cost of one incremental maintenance operation.
type UpdateStats struct {
	Affected  int           // objects whose UBRs were recomputed
	Unchanged int           // of those, UBRs that came back bit-identical: nothing rewritten
	Examined  int           // rows the filter looked at: an insert's window; a delete's witnessed rows (= Affected)
	SETime    time.Duration // UBR recomputation time
	IndexTime time.Duration // primary index and UBR table maintenance time
	TotalTime time.Duration
	// SE aggregates the Shrink-and-Expand cost of every UBR computed by the
	// operation: the newcomer's (insert) plus all affected recomputations.
	// The flat counters cover the base SE runs only; SE.Refine isolates the
	// escalated re-runs of the op's fat rows (refine.go), whose time is part
	// of SETime.
	SE core.Stats
}

// Insert adds object o to the database and incrementally refreshes the
// index (§VI-B, insertion). It is a one-op batch: validation, WAL logging
// (when attached) and application all run through ApplyBatch.
func (ix *Index) Insert(o *uncertain.Object) (UpdateStats, error) {
	sts, err := ix.ApplyBatch([]Update{{Op: OpInsert, Object: o}})
	if len(sts) == 1 {
		return sts[0], err
	}
	return UpdateStats{}, err
}

// Delete removes the object with the given ID from the database and
// incrementally refreshes the index (§VI-B, deletion). It is a one-op
// batch: validation, WAL logging (when attached) and application all run
// through ApplyBatch.
func (ix *Index) Delete(id uncertain.ID) (UpdateStats, error) {
	sts, err := ix.ApplyBatch([]Update{{Op: OpDelete, ID: id}})
	if len(sts) == 1 {
		return sts[0], err
	}
	return UpdateStats{}, err
}

// applyDelete performs the incremental deletion of §VI-B against the
// writer's working version. Only the rows that list the victim as a witness
// can need a new UBR — any other row's UBR still holds what its live
// witnesses leave open (docs/ARCHITECTURE.md, "Witnesses") — so the reverse
// index's rows for the victim are recomputed, warm-started between the old
// UBR and its union with the victim's, over their witnesses and the victim's;
// a row whose UBR comes back as it was is left alone. The deletes of a batch
// run one at a time, each against the lists the one before left.
func (w *working) applyDelete(id uncertain.ID) (UpdateStats, error) {
	var st UpdateStats
	start := time.Now()
	defer func() { st.TotalTime = time.Since(start) }()

	victim := w.db.Get(id)
	if victim == nil {
		return st, fmt.Errorf("pvindex: delete of object %d: %w", id, uncertain.ErrUnknownID)
	}
	victimUBR, ok := w.lookupUBR(uint32(id))
	if !ok {
		return st, fmt.Errorf("pvindex: object %d has no stored UBR", id)
	}

	if _, err := w.db.Remove(id); err != nil {
		return st, err
	}
	w.regionTree.Delete(rtree.Item{Rect: victim.Region, ID: uint32(id)})

	// Step 2: the affected set, the rows the victim witnessed. The victim's
	// own lists go with it.
	vid := uint32(id)
	victimW, ids := w.witnesses.get(vid), w.witnessed.get(vid)
	w.setWitnesses(vid, nil)
	w.witnessed.set(vid, nil)
	st.Examined = len(ids)

	// Step 4a: remove the victim's entries and UBR first, so warm-started
	// SE and leaf splits see the post-delete state.
	t0 := time.Now()
	if _, err := w.primary.Remove(vid, victimUBR); err != nil {
		return st, err
	}
	w.ubrs.remove(vid)
	st.IndexTime += time.Since(t0)

	// Step 3: warm-started SE per row (l = old UBR, h = its union with the
	// victim's) over its witnesses and the victim's; Step 4b: extend
	// coverage to newly reached leaves (N′−N).
	rows := make([]row, len(ids))
	for k, oid := range ids {
		oldB, ok := w.lookupUBR(oid)
		if !ok || w.db.Get(uncertain.ID(oid)) == nil {
			return st, fmt.Errorf("pvindex: object %d witnessed by %d is missing", oid, id)
		}
		rows[k] = row{oid, seStart{prev: oldB, has: w.witnesses.get(oid), extra: victimW, victim: vid, victimUBR: victimUBR}}
	}
	st.Affected = len(rows)
	err := w.recompute(rows, func(int) *UpdateStats { return &st })
	return st, err
}
