package pvoronoi

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// TestConcurrentQueriesWithWriter hammers the index with parallel readers —
// Query, QueryBatch, PossibleNN, PossibleKNN, GroupNN — while one writer
// goroutine interleaves Insert and Delete of a churn set. Under -race this
// is the serving layer's core safety guarantee; without the race detector it
// still checks that every read observes a consistent index (probabilities
// sum to 1, no errors from half-applied updates).
func TestConcurrentQueriesWithWriter(t *testing.T) {
	db := buildSmallDB(t, 120, true)
	ix, err := Build(db, testOptions())
	if err != nil {
		t.Fatal(err)
	}

	const churn = 20 // IDs 1000.. cycle through insert/delete
	makeChurnObject := func(rng *rand.Rand, id ID) *Object {
		lo := Point{rng.Float64() * 950, rng.Float64() * 950}
		region := NewRect(lo, Point{lo[0] + 5 + rng.Float64()*30, lo[1] + 5 + rng.Float64()*30})
		return &Object{ID: id, Region: region, Instances: SampleUniform(region, 10, int64(id))}
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Writer: insert a churn object, then delete it, round-robin.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for round := 0; round < 8; round++ {
			for i := 0; i < churn; i++ {
				id := ID(1000 + i)
				if err := ix.Insert(makeChurnObject(rng, id)); err != nil {
					t.Error(err)
					return
				}
			}
			for i := 0; i < churn; i++ {
				if err := ix.Delete(ID(1000 + i)); err != nil {
					t.Error(err)
					return
				}
			}
		}
		close(stop)
	}()

	// Readers: single queries plus small batches until the writer finishes.
	for r := 0; r < 6; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			randPoint := func() Point {
				return Point{rng.Float64() * 1000, rng.Float64() * 1000}
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				q := randPoint()
				results, err := ix.Query(q)
				if err != nil {
					t.Error(err)
					return
				}
				var sum float64
				for _, res := range results {
					sum += res.Prob
				}
				if len(results) > 0 && (sum < 0.999 || sum > 1.001) {
					t.Errorf("inconsistent read: probabilities sum to %g", sum)
					return
				}
				if _, err := ix.PossibleNN(randPoint()); err != nil {
					t.Error(err)
					return
				}
				batch := []Point{randPoint(), randPoint(), randPoint()}
				if _, err := ix.QueryBatch(batch, 2); err != nil {
					t.Error(err)
					return
				}
				if _, err := ix.PossibleKNN(randPoint(), 3); err != nil {
					t.Error(err)
					return
				}
				if _, err := ix.GroupNN([]Point{randPoint(), randPoint()}, AggSum); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(r))
	}
	wg.Wait()

	// After all churn objects are gone, the current version must hold
	// exactly the original survivors.
	if n := ix.Len(); n != 120 {
		t.Fatalf("index has %d objects after churn, want 120", n)
	}
}

// TestStep2NeverStale is Step 2's deterministic staleness oracle: after
// every Insert/Delete — including re-inserting the same ID with a different
// pdf, the access pattern most likely to surface a pdf read from the wrong
// version — queries through the long-lived index, asked twice, must agree
// exactly with a freshly built index over the same database.
func TestStep2NeverStale(t *testing.T) {
	db := buildSmallDB(t, 60, true)
	ix, err := Build(db, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	qs := []Point{{500, 500}, {120, 780}, {903, 88}, {333, 333}}
	warmAndCheck := func(step string) {
		t.Helper()
		// Rebuild from the current version's database (updates publish new
		// versions; the bootstrap handle stays at version 1).
		fresh, err := Build(ix.DB(), testOptions())
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range qs {
			// Query twice: the second answer must not depend on the first.
			if _, err := ix.Query(q); err != nil {
				t.Fatal(err)
			}
			got, err := ix.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: query at %v diverged from fresh index\ngot:   %v\nfresh: %v",
					step, q, got, want)
			}
		}
	}

	warmAndCheck("initial build")

	region := NewRect(Point{480, 480}, Point{520, 520})
	const churnID = ID(7777)
	// pdf A: all mass at the region's center.
	objA := &Object{ID: churnID, Region: region, Instances: []Instance{
		{Pos: Point{500, 500}, Prob: 1},
	}}
	if err := ix.Insert(objA); err != nil {
		t.Fatal(err)
	}
	warmAndCheck("insert pdf A")

	if err := ix.Delete(churnID); err != nil {
		t.Fatal(err)
	}
	warmAndCheck("delete")

	// pdf B: same ID, same region, mass split across two corners. A pdf read
	// from an older version would still answer with pdf A here.
	objB := &Object{ID: churnID, Region: region, Instances: []Instance{
		{Pos: Point{481, 481}, Prob: 0.5},
		{Pos: Point{519, 519}, Prob: 0.5},
	}}
	if err := ix.Insert(objB); err != nil {
		t.Fatal(err)
	}
	warmAndCheck("re-insert pdf B")
}

// TestRecordCacheConcurrentChurn hammers Step 2's per-version pdf reads
// under -race: readers run full PNNQs (checking every result's
// probabilities still sum to 1) while a writer cycles the same IDs through
// insert/delete with fresh pdfs each round — so a pdf read from a version
// other than the pinned one is served visibly stale.
func TestRecordCacheConcurrentChurn(t *testing.T) {
	db := buildSmallDB(t, 100, true)
	ix, err := Build(db, testOptions())
	if err != nil {
		t.Fatal(err)
	}

	const churn = 12
	var wg sync.WaitGroup
	stop := make(chan struct{})

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		rng := rand.New(rand.NewSource(5))
		for round := 0; round < 10; round++ {
			for i := 0; i < churn; i++ {
				id := ID(2000 + i)
				lo := Point{rng.Float64() * 950, rng.Float64() * 950}
				region := NewRect(lo, Point{lo[0] + 5 + rng.Float64()*30, lo[1] + 5 + rng.Float64()*30})
				o := &Object{
					ID:     id,
					Region: region,
					// Fresh pdf each round: a stale read would leak the
					// previous round's instances.
					Instances: SampleUniform(region, 8, int64(round*1000+i)),
				}
				if err := ix.Insert(o); err != nil {
					t.Error(err)
					return
				}
			}
			for i := 0; i < churn; i++ {
				if err := ix.Delete(ID(2000 + i)); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()

	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				q := Point{rng.Float64() * 1000, rng.Float64() * 1000}
				results, err := ix.Query(q)
				if err != nil {
					t.Error(err)
					return
				}
				var sum float64
				for _, res := range results {
					sum += res.Prob
				}
				if len(results) > 0 && (sum < 0.999 || sum > 1.001) {
					t.Errorf("stale read suspected: probabilities sum to %g", sum)
					return
				}
			}
		}(int64(100 + r))
	}
	wg.Wait()

	// Post-churn, the warm index must agree exactly with a fresh build over
	// the current version's database.
	fresh, err := Build(ix.DB(), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 40; i++ {
		q := Point{rng.Float64() * 1000, rng.Float64() * 1000}
		got, err := ix.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("post-churn query at %v diverged from fresh index", q)
		}
	}
}

// TestBatchMatchesSequential checks that QueryBatch and PossibleNNBatch
// return, position for position, exactly what sequential calls return.
func TestBatchMatchesSequential(t *testing.T) {
	db := buildSmallDB(t, 100, true)
	ix, err := Build(db, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	qs := make([]Point, 60)
	for i := range qs {
		qs[i] = Point{rng.Float64() * 1000, rng.Float64() * 1000}
	}

	batchResults, err := ix.QueryBatch(qs, 4)
	if err != nil {
		t.Fatal(err)
	}
	batchCands, err := ix.PossibleNNBatch(qs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(batchResults) != len(qs) || len(batchCands) != len(qs) {
		t.Fatalf("batch lengths %d/%d, want %d", len(batchResults), len(batchCands), len(qs))
	}
	for i, q := range qs {
		seq, err := ix.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, batchResults[i]) {
			t.Fatalf("query %d: batch result differs from sequential\nbatch: %v\nseq:   %v", i, batchResults[i], seq)
		}
		seqCands, err := ix.PossibleNN(q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seqCands, batchCands[i]) {
			t.Fatalf("query %d: batch candidates differ from sequential", i)
		}
	}
}

// TestBatchErrorAborts checks that an out-of-domain point fails the whole
// batch rather than returning partial results.
func TestBatchErrorAborts(t *testing.T) {
	db := buildSmallDB(t, 40, false)
	ix, err := Build(db, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	qs := []Point{{10, 10}, {-5000, -5000}, {20, 20}}
	if _, err := ix.PossibleNNBatch(qs, 2); err == nil {
		t.Fatal("expected error for out-of-domain point")
	}
}

// TestQueryCostReporting checks the per-query cost plumbing: candidate
// counts match and leaf I/O is at least one page.
func TestQueryCostReporting(t *testing.T) {
	db := buildSmallDB(t, 80, true)
	ix, err := Build(db, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	q := Point{500, 500}
	cands, cost, err := ix.PossibleNNWithCost(q)
	if err != nil {
		t.Fatal(err)
	}
	if cost.Candidates != len(cands) {
		t.Fatalf("cost.Candidates = %d, want %d", cost.Candidates, len(cands))
	}
	if cost.LeafIO < 1 {
		t.Fatalf("cost.LeafIO = %d, want >= 1", cost.LeafIO)
	}
	results, qcost, err := ix.QueryWithCost(q)
	if err != nil {
		t.Fatal(err)
	}
	if qcost.Candidates != len(cands) {
		t.Fatalf("QueryWithCost candidates = %d, want %d", qcost.Candidates, len(cands))
	}
	seq, err := ix.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, results) {
		t.Fatal("QueryWithCost results differ from Query")
	}
}
