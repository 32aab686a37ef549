package pvindex

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pvoronoi/internal/core"
	"pvoronoi/internal/octree"
	"pvoronoi/internal/pagestore"
	"pvoronoi/internal/rtree"
	"pvoronoi/internal/uncertain"
)

// BuildParallel constructs the PV-index like Build but computes UBRs on an
// SE pool of workers (the SE algorithm is read-only over the database and
// the region tree, so per-object UBR computation parallelizes
// embarrassingly; the octree bulk load and the table writes after it are
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
	ix.initRuntime()

	start := time.Now()
	w, err := ix.bootstrapWorking(db)
	if err != nil {
		return nil, err
	}

	objs := db.Objects()
	items := make([]octree.BulkItem, len(objs))
	seStats := make([]core.Stats, len(objs))
	lists := make([][]uint32, len(objs))

	// NN iterators only read the shared R*-tree, so the workers share it.
	ix.parallelSE(len(objs), func(i int) {
		items[i].Entry = octree.Entry{ID: uint32(objs[i].ID), Region: objs[i].Region}
		items[i].UBR, lists[i], seStats[i] = w.se(objs[i], seStart{})
	})

	t0 := time.Now()
	// The primary index in one pass — the tree inserting the objects in this
	// order would build, without reading a leaf page back — then the UBRs.
	if err := w.primary.BulkLoad(items); err != nil {
		return nil, err
	}
	for i, o := range objs {
		ix.Build.SE.Add(seStats[i])
		w.ubrs.set(uint32(o.ID), items[i].UBR)
		w.setWitnesses(uint32(o.ID), lists[i])
		ix.Build.Objects++
	}
	w.mergeWitnessed()
	ix.Build.InsertTime = time.Since(t0)
	ix.Build.Total = time.Since(start)
	ix.installBootstrap(w, walSeq)
	return ix, nil
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
