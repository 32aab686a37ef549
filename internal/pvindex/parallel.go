package pvindex

import (
	"runtime"
	"sync"
	"time"

	"pvoronoi/internal/core"
	"pvoronoi/internal/geom"
	"pvoronoi/internal/octree"
	"pvoronoi/internal/pagestore"
	"pvoronoi/internal/rtree"
	"pvoronoi/internal/uncertain"
)

// BuildParallel constructs the PV-index like Build but computes UBRs with a
// pool of workers (the SE algorithm is read-only over the database and the
// region tree, so per-object UBR computation parallelizes embarrassingly;
// the octree bulk load and the record writes after it are serial). workers
// <= 0 uses GOMAXPROCS.
//
// The resulting index is the one a serial Build makes — the paper's
// bulk-loading direction from its conclusion, realized as a
// construction-time optimization.
func BuildParallel(db *uncertain.DB, cfg Config, workers int) (*Index, error) {
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
	items := make([]octree.BulkItem, len(objs))
	seStats := make([]core.Stats, len(objs))

	// NN iterators only read the shared R*-tree, so the workers share it.
	parallelFor(workers, len(objs), func(i int) {
		items[i].Entry = octree.Entry{ID: uint32(objs[i].ID), Region: objs[i].Region}
		items[i].UBR, seStats[i] = w.se(objs[i], geom.Rect{}, geom.Rect{})
	})

	t0 := time.Now()
	// The primary index in one pass — the tree inserting the objects in this
	// order would build, without reading a leaf page back — then the records.
	if err := w.primary.BulkLoad(items); err != nil {
		return nil, err
	}
	for i, o := range objs {
		ix.Build.SE.Add(seStats[i])
		if err := w.putRecord(uint32(o.ID), record{UBR: items[i].UBR, Region: o.Region, Instances: o.Instances}); err != nil {
			return nil, err
		}
		ix.Build.Objects++
	}
	ix.Build.InsertTime = time.Since(t0)
	ix.Build.Total = time.Since(start)
	ix.installBootstrap(w, 0)
	return ix, nil
}

// parallelFor runs fn(0..n-1) across at most workers goroutines (inline when
// one suffices). Each index is visited by exactly one worker, so fn may
// write to per-index slots without synchronization.
func parallelFor(workers, n int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}
