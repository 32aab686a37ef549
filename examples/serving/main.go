// Serving: the concurrent-access pattern behind cmd/pvserve, in-process.
// Builds a PV-index, then runs many query goroutines (single queries, and
// batches through pvoronoi.Batch's worker pool) in parallel with a writer
// that inserts and deletes objects — exactly the reader/writer mix a
// query-serving deployment sees.
//
//	go run ./examples/serving
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"pvoronoi"
)

func main() {
	// A synthetic 2-D database of 2000 uncertain objects.
	domain := pvoronoi.NewRect(pvoronoi.Point{0, 0}, pvoronoi.Point{10000, 10000})
	db := pvoronoi.NewDB(domain)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		lo := pvoronoi.Point{rng.Float64() * 9900, rng.Float64() * 9900}
		region := pvoronoi.NewRect(lo, pvoronoi.Point{lo[0] + 10 + rng.Float64()*50, lo[1] + 10 + rng.Float64()*50})
		obj := &pvoronoi.Object{
			ID:        pvoronoi.ID(i + 1),
			Region:    region,
			Instances: pvoronoi.SampleUniform(region, 50, int64(i)),
		}
		if err := db.Add(obj); err != nil {
			log.Fatal(err)
		}
	}

	t0 := time.Now()
	ix, err := pvoronoi.BuildParallel(db, pvoronoi.DefaultOptions(), 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("built PV-index over %d objects in %v\n", ix.Len(), time.Since(t0).Round(time.Millisecond))

	var queryCount atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Four reader goroutines: two issue single queries, two issue batches.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64, batched bool) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			randPoint := func() pvoronoi.Point {
				return pvoronoi.Point{rng.Float64() * 10000, rng.Float64() * 10000}
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				if batched {
					qs := make([]pvoronoi.Point, 16)
					for i := range qs {
						qs[i] = randPoint()
					}
					if _, err := pvoronoi.Batch(context.Background(), qs, 4, ix.Query); err != nil {
						log.Fatal(err)
					}
					queryCount.Add(int64(len(qs)))
				} else {
					if _, err := ix.Query(randPoint()); err != nil {
						log.Fatal(err)
					}
					queryCount.Add(1)
				}
			}
		}(int64(r), r%2 == 0)
	}

	// One writer goroutine churns objects through insert/delete while the
	// readers run. Each update applies the paper's incremental maintenance
	// under the index's exclusive write lock.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(77))
		for i := 0; i < 40; i++ {
			id := pvoronoi.ID(100000 + i)
			lo := pvoronoi.Point{rng.Float64() * 9900, rng.Float64() * 9900}
			region := pvoronoi.NewRect(lo, pvoronoi.Point{lo[0] + 30, lo[1] + 30})
			obj := &pvoronoi.Object{ID: id, Region: region,
				Instances: pvoronoi.SampleUniform(region, 20, int64(id))}
			if err := ix.Insert(obj); err != nil {
				log.Fatal(err)
			}
			if err := ix.Delete(id); err != nil {
				log.Fatal(err)
			}
		}
		close(stop)
	}()

	wg.Wait()
	fmt.Printf("served %d queries concurrently with 80 index updates\n", queryCount.Load())
	fmt.Printf("index still holds %d objects\n", ix.Len())

	// Per-query cost attribution survives concurrency: ask one more query
	// for its exact leaf I/O.
	_, cost, err := ix.QueryWithCost(pvoronoi.Point{5000, 5000})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("a PNNQ at the center read %d leaf page(s) and pruned to %d candidate(s)\n",
		cost.LeafIO, cost.Candidates)
}
