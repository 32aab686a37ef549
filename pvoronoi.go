// Package pvoronoi is a Go implementation of the PV-index — the
// Voronoi-based access method for probabilistic nearest neighbor queries
// (PNNQ) over multi-dimensional uncertain databases from Zhang et al.,
// "Voronoi-based Nearest Neighbor Search for Multi-Dimensional Uncertain
// Databases", ICDE 2013.
//
// An uncertain object is a rectangular uncertainty region plus a discrete
// pdf of weighted instance points. The Possible Voronoi cell (PV-cell) of an
// object is the region of space where it has non-zero probability of being
// a query point's nearest neighbor. The PV-index stores, per object, an
// Uncertain Bounding Rectangle (UBR) that conservatively contains its
// PV-cell — computed by the Shrink-and-Expand (SE) algorithm — organized in
// an octree with disk-resident leaves plus an extendible-hash secondary
// index, so a PNNQ retrieves its candidates with a single leaf access.
//
// Basic usage:
//
//	db := pvoronoi.NewDB(pvoronoi.NewRect(
//		pvoronoi.Point{0, 0}, pvoronoi.Point{10000, 10000}))
//	_ = db.Add(&pvoronoi.Object{ID: 1, Region: region, Instances: pdf})
//	ix, _ := pvoronoi.Build(db, pvoronoi.DefaultOptions())
//	results, _ := ix.Query(pvoronoi.Point{420, 17})   // full PNNQ
//	cands, _ := ix.PossibleNN(pvoronoi.Point{420, 17}) // Step 1 only
//
// The index stays consistent with the database through ix.Insert and
// ix.Delete, which use the paper's incremental maintenance (orders of
// magnitude cheaper than rebuilding).
package pvoronoi

import (
	"pvoronoi/internal/core"
	"pvoronoi/internal/geom"
	"pvoronoi/internal/pagestore"
	"pvoronoi/internal/pnnq"
	"pvoronoi/internal/pvindex"
	"pvoronoi/internal/uncertain"
	"pvoronoi/internal/vfs"
)

// Point is a d-dimensional point.
type Point = geom.Point

// Rect is a d-dimensional axis-parallel rectangle.
type Rect = geom.Rect

// NewRect builds a rectangle from its lower-left and upper-right corners.
// It panics on inverted or dimension-mismatched corners.
func NewRect(lo, hi Point) Rect { return geom.NewRect(lo, hi) }

// ID identifies an object within a database.
type ID = uncertain.ID

// Instance is one weighted sample of an object's discrete pdf.
type Instance = uncertain.Instance

// Object is an uncertain object: an uncertainty region bounding all its
// possible attribute values, plus optional pdf instances.
type Object = uncertain.Object

// DB is an in-memory uncertain database (the set S of the paper).
type DB = uncertain.DB

// NewDB creates an empty database over the given domain rectangle.
func NewDB(domain Rect) *DB { return uncertain.NewDB(domain) }

// SampleUniform discretizes a uniform pdf over region into n equally
// weighted instances, using the given seed.
func SampleUniform(region Rect, n int, seed int64) []Instance {
	return uncertain.SampleInstances(region, uncertain.PDFUniform, n, newRand(seed))
}

// SampleGaussian discretizes a truncated Gaussian pdf (σ = side/4) over
// region into n equally weighted instances.
func SampleGaussian(region Rect, n int, seed int64) []Instance {
	return uncertain.SampleInstances(region, uncertain.PDFGaussian, n, newRand(seed))
}

// CSetStrategy selects how SE bounds the set of objects it reasons about.
type CSetStrategy = core.CSetStrategy

// C-set strategies (§V-A of the paper).
const (
	// CSetAll uses the whole database — correct but impractically slow.
	CSetAll = core.CSetAll
	// CSetFS (Fixed Selection) uses the K nearest objects by center.
	CSetFS = core.CSetFS
	// CSetIS (Incremental Selection) browses neighbors until every domain
	// quadrant has KPartition of them — the paper's default.
	CSetIS = core.CSetIS
)

// Options configures index construction (Table I parameters).
type Options struct {
	// Delta is the SE termination threshold Δ (default 1 domain unit).
	Delta float64
	// MMax bounds the recursive partitioning depth of the domination
	// count estimation (default 10).
	MMax int
	// Strategy is the chooseCSet implementation (default CSetIS).
	Strategy CSetStrategy
	// K is the C-set size for FS (default 200).
	K int
	// KPartition is IS's per-quadrant quota (default 10).
	KPartition int
	// KGlobal caps IS's neighbor examination (default 200).
	KGlobal int
	// MemBudget bounds the primary index's in-memory non-leaf structure
	// in bytes (default 5 MB).
	MemBudget int
	// PageSize is the simulated disk page size in bytes (default 4096).
	PageSize int
	// CheckpointRetain is how many checkpoints the durable layer keeps on
	// disk (0 = default 2, minimum 1). Retaining more than one means a
	// corrupt or torn newest checkpoint falls back to the previous one plus
	// a longer WAL replay instead of bricking the store; the WAL is only
	// trimmed below the oldest retained checkpoint.
	CheckpointRetain int
	// FS is the filesystem the durable layer runs on (nil = the real OS).
	// Tests swap in a vfs.FaultFS to inject torn writes, fsync failures,
	// disk-full, and bit rot deterministically.
	FS vfs.FS
}

// DefaultOptions returns the paper's default parameters.
func DefaultOptions() Options {
	se := core.DefaultOptions()
	return Options{
		Delta:      se.Delta,
		MMax:       se.MaxDepth,
		Strategy:   se.Strategy,
		K:          se.K,
		KPartition: se.KPartition,
		KGlobal:    se.KGlobal,
		MemBudget:  5 << 20,
		PageSize:   pagestore.DefaultPageSize,
	}
}

func (o Options) toConfig() pvindex.Config {
	cfg := pvindex.DefaultConfig()
	cfg.Store = pagestore.New(o.PageSize)
	if o.MemBudget > 0 {
		cfg.MemBudget = o.MemBudget
	}
	if o.Delta > 0 {
		cfg.SE.Delta = o.Delta
	}
	if o.MMax > 0 {
		cfg.SE.MaxDepth = o.MMax
	}
	cfg.SE.Strategy = o.Strategy
	if o.K > 0 {
		cfg.SE.K = o.K
	}
	if o.KPartition > 0 {
		cfg.SE.KPartition = o.KPartition
	}
	if o.KGlobal > 0 {
		cfg.SE.KGlobal = o.KGlobal
	}
	return cfg
}

// Candidate is a PNNQ Step-1 result: an object with non-zero probability of
// being the nearest neighbor.
type Candidate = pvindex.Candidate

// Result is a PNNQ Step-2 result: an object and its qualification
// probability.
type Result = pnnq.Result

// Index is a built PV-index bound to a database.
//
// An Index is safe for concurrent use and serves reads lock-free through
// epoch-based MVCC: any number of goroutines may run Query, PossibleNN and
// the extension queries (alone or through Batch) in parallel while others
// interleave Insert, Delete and ApplyBatch. Every query pins an immutable
// snapshot version with two atomic operations — it never takes a lock and
// never waits for a writer, however large the concurrent batch. Writers
// build the next version copy-on-write and publish it with a single atomic
// pointer swap; superseded versions are reclaimed once their last in-flight
// reader drains. Each query observes the index atomically — never a
// half-applied update.
type Index struct {
	inner *pvindex.Index
}

// Build constructs a PV-index over db. The database is adopted as the first
// snapshot version; subsequent updates publish new versions, so read the
// current data through Index.DB(), Len, UBR and the query methods rather
// than the original pointer. Its objects are adopted too: queries read their
// instances in place, so no object may be mutated afterwards.
func Build(db *DB, opts Options) (*Index, error) {
	inner, err := pvindex.Build(db, opts.toConfig())
	if err != nil {
		return nil, err
	}
	return &Index{inner: inner}, nil
}

// PossibleNN evaluates PNNQ Step 1: the exact set of objects whose
// probability of being q's nearest neighbor is non-zero.
func (ix *Index) PossibleNN(q Point) ([]Candidate, error) {
	return ix.inner.PossibleNN(q)
}

// QueryCost reports the per-query cost of one evaluation: the number of
// Step-1 candidates and the primary-index leaf pages read to retrieve them
// (the leaf-I/O metric of the paper's Figs. 9(c)/9(g)). Unlike the global
// IO counters, it is attributed exactly to the query that incurred it, so
// it stays meaningful when many queries run concurrently.
type QueryCost struct {
	Candidates int
	LeafIO     int
	// CacheHits and CacheMisses are always 0: Step 2 reads the pinned
	// version's pdfs in place, without a cache. They stay only because the
	// benchmark harness (benchmark/layers.go) still reads them.
	CacheHits   int
	CacheMisses int
}

// Query evaluates the full PNNQ: Step 1 through the index, then Step 2
// qualification probabilities from the stored pdfs, sorted by decreasing
// probability. Objects without stored instances are skipped in Step 2.
func (ix *Index) Query(q Point) ([]Result, error) {
	res, _, err := ix.QueryWithCost(q)
	return res, err
}

// QueryWithCost is Query plus the per-query cost breakdown. Step 1 and the
// candidate data fetch happen atomically under the index's read lock; the
// Step-2 probability computation runs outside it.
func (ix *Index) QueryWithCost(q Point) ([]Result, QueryCost, error) {
	snap, err := ix.inner.Snapshot(q)
	if err != nil {
		return nil, QueryCost{}, err
	}
	cost := QueryCost{Candidates: len(snap.Candidates), LeafIO: snap.LeafIO}
	return pnnq.Compute(snapshotData(snap), q), cost, nil
}

// QueryVerified evaluates the PNNQ like Query but runs Step 2 through the
// probabilistic-verifier shortcut (Cheng et al., ICDE 2008): cheap
// probability bounds settle most candidates, and the exact product runs
// only for those whose bounds stay wider than eps. Per-object probabilities
// differ from Query by at most eps (identical at eps = 0).
func (ix *Index) QueryVerified(q Point, eps float64) ([]Result, error) {
	res, _, err := ix.QueryVerifiedWithCost(q, eps)
	return res, err
}

// QueryVerifiedWithCost is QueryVerified plus the per-query cost breakdown.
func (ix *Index) QueryVerifiedWithCost(q Point, eps float64) ([]Result, QueryCost, error) {
	snap, err := ix.inner.Snapshot(q)
	if err != nil {
		return nil, QueryCost{}, err
	}
	cost := QueryCost{Candidates: len(snap.Candidates), LeafIO: snap.LeafIO}
	return pnnq.ComputeVerified(snapshotData(snap), q, eps), cost, nil
}

// snapshotData adapts an atomic index snapshot to pnnq's candidate input.
func snapshotData(snap *pvindex.QuerySnapshot) []pnnq.CandidateData {
	data := make([]pnnq.CandidateData, len(snap.Candidates))
	for i, c := range snap.Candidates {
		data[i] = pnnq.CandidateData{ID: c.ID, Instances: snap.Instances[i]}
	}
	return data
}

// PossibleNNWithCost is PossibleNN plus the per-query cost breakdown. It
// skips the Step-2 data fetch, so its leaf I/O is the pure Step-1 cost.
func (ix *Index) PossibleNNWithCost(q Point) ([]Candidate, QueryCost, error) {
	cands, leafIO, err := ix.inner.PossibleNNIO(q)
	if err != nil {
		return nil, QueryCost{}, err
	}
	return cands, QueryCost{Candidates: len(cands), LeafIO: leafIO}, nil
}

// UpdateStats reports the cost of one incremental maintenance operation:
// how many objects were examined and recomputed, and where the time went.
type UpdateStats = pvindex.UpdateStats

// Insert adds o to the database and incrementally refreshes the index.
// The update builds a new snapshot version and publishes it atomically:
// in-flight queries keep reading the previous version undisturbed, and
// queries started after the publish observe the fully applied update. The
// index adopts o: queries read its instances in place, so it must not be
// mutated afterwards.
func (ix *Index) Insert(o *Object) error {
	_, err := ix.inner.Insert(o)
	return err
}

// Delete removes the object with the given ID from the database and
// incrementally refreshes the index. Like Insert, it publishes a new
// version without ever blocking readers.
func (ix *Index) Delete(id ID) error {
	_, err := ix.inner.Delete(id)
	return err
}

// Len returns the number of indexed objects in the current version. Safe
// to call while writers are running (it reads a pinned snapshot).
func (ix *Index) Len() int {
	n := 0
	_ = ix.inner.View(func(db *uncertain.DB) error {
		n = db.Len()
		return nil
	})
	return n
}

// UBR returns the stored Uncertain Bounding Rectangle of an object.
func (ix *Index) UBR(id ID) (Rect, bool) { return ix.inner.UBR(id) }

// DB returns the current version's database. The snapshot it points at is
// immutable — writers publish new versions instead of mutating it — so
// reading it is always safe, but the pointer advances with every applied
// update; capture it once when several reads must agree.
func (ix *Index) DB() *DB { return ix.inner.DB() }

// Epoch returns the index's published write epoch: 1 after construction,
// incremented by every applied update batch. Lock-free.
func (ix *Index) Epoch() uint64 { return ix.inner.Epoch() }

// MVCCStats reports the snapshot lifecycle's gauges: the published epoch,
// in-flight pinned readers, versions awaiting reclamation, and versions
// reclaimed so far.
type MVCCStats = pvindex.MVCCStats

// MVCC returns the snapshot lifecycle gauges (see MVCCStats).
func (ix *Index) MVCC() MVCCStats { return ix.inner.MVCC() }

// IOStats reports the simulated disk I/O counters accumulated so far.
type IOStats struct {
	Reads, Writes int64
}

// IO returns the index's accumulated page I/O counts.
func (ix *Index) IO() IOStats {
	s := ix.inner.Store().Stats()
	return IOStats{Reads: s.Reads, Writes: s.Writes}
}

// ResetIO zeroes the I/O counters (useful around measured query batches).
func (ix *Index) ResetIO() { ix.inner.Store().ResetStats() }

// RefineCounters reports the refinement subsystem's lifetime totals: rows
// refined, refined rows left bit-identical, and the domination-test budget
// spent.
type RefineCounters = pvindex.RefineCounters

// RefineCounters returns the refinement subsystem's lifetime totals.
func (ix *Index) RefineCounters() RefineCounters { return ix.inner.RefineCounters() }
