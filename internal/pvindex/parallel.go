package pvindex

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pvoronoi/internal/core"
	"pvoronoi/internal/geom"
	"pvoronoi/internal/octree"
	"pvoronoi/internal/pagestore"
	"pvoronoi/internal/rtree"
	"pvoronoi/internal/uncertain"
)

// BuildParallel constructs the PV-index like Build but computes UBRs on an
// SE pool of workers (the SE algorithm is read-only over the database and
// the region tree, so per-object UBR computation parallelizes
// embarrassingly; the table writes and the octree bulk load after it are
// serial). workers <= 0 uses GOMAXPROCS. The pool stays the index's: every
// later write fans out on the same workers.
//
// The resulting index is the one a serial Build makes — the paper's
// bulk-loading direction from its conclusion, realized as a
// construction-time optimization.
func BuildParallel(db *uncertain.DB, cfg Config, workers int) (*Index, error) {
	return buildParallel(db, cfg, workers, 0)
}

// buildParallel is BuildParallel publishing version 1 at WAL position walSeq.
func buildParallel(db *uncertain.DB, cfg Config, workers int, walSeq uint64) (*Index, error) {
	if err := geom.CheckDim(db.Dim()); err != nil {
		return nil, fmt.Errorf("pvindex: build: %w", err)
	}
	ix := newIndex(cfg, workers)
	start := time.Now()
	for _, o := range db.Objects() {
		err := o.Validate()
		if err == nil {
			err = db.CheckInDomain(o)
		}
		if err != nil {
			return nil, fmt.Errorf("pvindex: build: %w", err)
		}
	}
	w, err := ix.bootstrapWorking(db)
	if err != nil {
		return nil, err
	}

	objs := db.Objects()
	ubrs := make([]geom.Rect, len(objs))
	seStats := make([]core.Stats, len(objs))
	lists := make([][]uint32, len(objs))

	// NN iterators only read the shared R*-tree, so the workers share it.
	ix.parallelSE(len(objs), func(i int) {
		ubrs[i], lists[i], seStats[i] = w.se(objs[i], seStart{})
	})

	t0 := time.Now()
	for i, o := range objs {
		ix.Build.SE.Add(seStats[i])
		w.ubrs.set(uint32(o.ID), ubrs[i])
		w.witnesses.set(uint32(o.ID), lists[i])
		ix.Build.Objects++
	}
	if err := ix.install(w, walSeq); err != nil {
		return nil, err
	}
	ix.Build.InsertTime = time.Since(t0)
	ix.Build.Total = time.Since(start)
	return ix, nil
}

// newIndex is an empty index over cfg, its zero fields at their defaults,
// with an SE pool of workers (GOMAXPROCS when workers <= 0) and its query
// scratch pool wired. Every constructor — Build, BuildParallel, LoadFrom,
// Rebuild — starts from it.
func newIndex(cfg Config, workers int) *Index {
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
	ix := &Index{store: cfg.Store, cfg: cfg, pool: workers}
	ix.scratch.New = func() any { return new(queryScratch) }
	return ix
}

// install derives w's reverse witness index and bulk-loads its empty
// octree with every database object's entry, in database order, under its
// UBR in w's table, and publishes w as version 1 at WAL position walSeq: the
// tail of a build and of a load. Both are derived state — the octree is the
// tree inserting the objects in that order would build, without reading a
// leaf page back — so a loaded index holds what a build over the same UBRs
// and lists makes, whatever shape the saving one had reached.
func (ix *Index) install(w *working, walSeq uint64) error {
	w.witnessed = transpose(w.witnesses)
	objs := w.db.Objects()
	items := make([]octree.BulkItem, len(objs))
	for i, o := range objs {
		ubr, _ := w.ubrs.get(uint32(o.ID))
		items[i] = octree.BulkItem{Entry: octree.Entry{ID: uint32(o.ID), Region: o.Region}, UBR: ubr}
	}
	if err := w.primary.BulkLoad(items); err != nil {
		return err
	}
	ix.current.Store(w.seal(walSeq))
	return nil
}

// parallelFor runs fn(0..n-1) on the calling goroutine and at most
// workers-1 more (inline when one suffices), each taking the next index from
// a shared counter until none is left. Each index is visited by exactly one
// worker, so fn may write to per-index slots without synchronization.
func parallelFor(workers, n int, fn func(i int)) {
	if workers = min(workers, n); workers <= 1 {
		for i := range n {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			fn(i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for range workers - 1 {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}
