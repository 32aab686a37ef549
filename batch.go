package pvoronoi

import (
	"context"
	"runtime"
	"sync"
)

// Batch evaluates fn for every query in qs on a pool of workers (GOMAXPROCS
// when workers <= 0); result i is fn(qs[i]). fn is usually a query method,
// as in Batch(ctx, points, 0, ix.Query): each call pins its own snapshot
// version lock-free, so a batch never waits on writers, and each result
// equals a sequential call's against the same version.
//
// The first error fails the batch, which then returns no results. ctx is
// checked before every query starts: once it ends, no further query starts
// and the batch fails with ctx.Err(). Queries already running finish — they
// take microseconds to milliseconds, so the deadline bounds the batch
// without cancellation points inside the geometry kernels.
func Batch[Q, T any](ctx context.Context, qs []Q, workers int, fn func(Q) (T, error)) ([]T, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(qs))
	out := make([]T, len(qs))
	// The batch's own context ends with the first error or with ctx.
	bctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	var wg sync.WaitGroup
	jobs := make(chan int)
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if bctx.Err() != nil {
					continue // handed over as the batch ended: must not start
				}
				r, err := fn(qs[i])
				if err != nil {
					cancel(err)
				}
				out[i] = r
			}
		}()
	}
submit:
	for i := range qs {
		select {
		case jobs <- i:
		case <-bctx.Done():
			break submit
		}
	}
	close(jobs)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := context.Cause(bctx); err != nil {
		return nil, err
	}
	return out, nil
}
