package rtree

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"pvoronoi/internal/geom"
	"pvoronoi/internal/race"
)

// browseStep is one Next of a browse: what came out and the number of
// leaves the browse had opened right after it.
type browseStep struct {
	id     uint32
	dist   float64
	leaves int
}

// browseSteps drives next for at most limit items (all when limit < 0) and
// records every step with the browse's own leaf count.
func browseSteps(limit int, next func() (Item, float64, bool), leaves func() int) []browseStep {
	var out []browseStep
	for limit < 0 || len(out) < limit {
		item, d, ok := next()
		if !ok {
			break
		}
		out = append(out, browseStep{item.ID, d, leaves()})
	}
	return out
}

// refSteps records the whole reference browse from q.
func refSteps(tree *Tree, q geom.Point, fn DistFunc) []browseStep {
	ref := newRefNNIter(tree, q, fn)
	return browseSteps(-1, ref.Next, func() int { return ref.leaves })
}

func randQuery(rng *rand.Rand, d int) geom.Point {
	q := make(geom.Point, d)
	for k := range q {
		q[k] = rng.Float64() * 1000
	}
	return q
}

// browseTrees returns the tree shapes the browse must agree on: bulk-loaded,
// insert-grown, and a COW clone of the bulk-loaded tree after inserts and
// deletes (whose browse crosses shared and path-copied nodes).
func browseTrees(rng *rand.Rand, kind string, n, d int) map[string]*Tree {
	items := bulkTestItems(rng, kind, n, d)
	ins := New(d, 8)
	for _, it := range items {
		ins.Insert(it)
	}
	bulk := BulkLoad(d, 8, items)
	clone := bulk.CloneCOW()
	for i := 0; i < n/4; i++ {
		clone.Delete(items[rng.Intn(n)])
		extra := Item{Rect: randRect(rng, d, 1000, 20), ID: uint32(n + i)}
		if i%3 == 0 {
			extra.Rect = items[rng.Intn(n)].Rect // one more duplicate
		}
		clone.Insert(extra)
	}
	return map[string]*Tree{"bulk": bulk, "inserted": ins, "cow-clone": clone}
}

// TestBrowseMatchesReference holds NNIter to the browse it replaced
// (reference_test.go): the same (ID, dist) at every step — ties among
// duplicated rectangles included, which only the push order resolves — and
// the same number of leaves opened after every step, to exhaustion.
func TestBrowseMatchesReference(t *testing.T) {
	for _, d := range []int{1, 2, 3, 5} {
		for _, kind := range []string{"uniform", "degenerate"} {
			rng := rand.New(rand.NewSource(int64(7*d + len(kind))))
			for name, tree := range browseTrees(rng, kind, 600, d) {
				t.Run(fmt.Sprintf("d%d-%s-%s", d, kind, name), func(t *testing.T) {
					for i := 0; i < 6; i++ {
						q := randQuery(rng, d)
						for fi, fn := range []DistFunc{MinDistTo(q), CenterDistTo(q)} {
							want := refSteps(tree, q, fn)
							it := NewNNIter(tree, q, fn)
							got := browseSteps(-1, it.Next, it.Leaves)
							it.Release()
							if len(got) != tree.Len() || len(got) != len(want) {
								t.Fatalf("browse from %v returned %d items, reference %d, tree holds %d", q, len(got), len(want), tree.Len())
							}
							for s := range want {
								if got[s] != want[s] {
									t.Fatalf("distFn %d from %v, step %d: got %+v, reference %+v", fi, q, s, got[s], want[s])
								}
							}
						}
					}
				})
			}
		}
	}
}

// TestBrowseReleaseResets checks what Release hands to the pool — no queue,
// no query, and no entry pointer left in the table's backing array (a pooled
// iterator must not keep a retired tree version alive) — and that a browse
// started after an abandoned one is the browse a fresh iterator gives.
func TestBrowseReleaseResets(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tree := BulkLoad(2, 8, bulkTestItems(rng, "degenerate", 500, 2))
	q := randQuery(rng, 2)
	it := NewNNIter(tree, q, MinDistTo(q))
	browseSteps(37, it.Next, it.Leaves) // abandon mid-browse: queue and table non-empty
	if len(it.heap) == 0 || len(it.refs) == 0 {
		t.Fatal("abandoned browse left nothing queued; the test needs a longer tree")
	}
	it.Release()
	if it.tree != nil || it.q != nil || it.distFn != nil || it.root.child != nil || len(it.heap) != 0 || len(it.refs) != 0 || it.leaves != 0 {
		t.Fatalf("released iterator keeps state: %+v", it)
	}
	for i, e := range it.refs[:cap(it.refs)] {
		if e != nil {
			t.Fatalf("released iterator still points at entry %d of its last browse", i)
		}
	}
	for i := 0; i < 20; i++ {
		q := randQuery(rng, 2)
		want := refSteps(tree, q, MinDistTo(q))
		it := NewNNIter(tree, q, MinDistTo(q)) // most likely the iterator just released
		got := browseSteps(50+i, it.Next, it.Leaves)
		it.Release()
		for s := range got {
			if got[s] != want[s] {
				t.Fatalf("reused iterator, browse %d step %d: got %+v, reference %+v", i, s, got[s], want[s])
			}
		}
	}
}

// TestBrowseConcurrentPooled has 8 goroutines browse one sealed tree through
// pooled iterators, abandoning browses at different depths, while a COW
// clone is mutated beside them. Run under -race.
func TestBrowseConcurrentPooled(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	items := bulkTestItems(rng, "uniform", 800, 3)
	tree := BulkLoad(3, 8, items)
	queries := make([]geom.Point, 16)
	want := make([][]browseStep, len(queries))
	for i := range queries {
		queries[i] = randQuery(rng, 3)
		want[i] = refSteps(tree, queries[i], MinDistTo(queries[i]))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 40; round++ {
				qi := (g + round) % len(queries)
				it := NewNNIter(tree, queries[qi], MinDistTo(queries[qi]))
				for s := 0; s < 10+(g*round)%300; s++ {
					item, d, ok := it.Next()
					if !ok || item.ID != want[qi][s].id || d != want[qi][s].dist {
						t.Errorf("goroutine %d round %d step %d: got (%d, %v, %v), want %+v", g, round, s, item.ID, d, ok, want[qi][s])
						break
					}
				}
				it.Release()
			}
		}(g)
	}
	clone := tree.CloneCOW()
	for i := 0; i < 200; i++ {
		clone.Delete(items[i])
		clone.Insert(Item{Rect: randRect(rng, 3, 1000, 20), ID: uint32(1000 + i)})
	}
	wg.Wait()
}

// TestBrowseAllocBudget pins the browse's steady-state allocations: the
// root's MBR and nothing else, however many leaves the browse opens.
func TestBrowseAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	rng := rand.New(rand.NewSource(17))
	tree := BulkLoad(2, DefaultFanout, bulkTestItems(rng, "uniform", 8000, 2))
	q := geom.Point{500, 500}
	fn := MinDistTo(q)
	for _, items := range []int{60, 2000} {
		browse := func() {
			it := NewNNIter(tree, q, fn)
			for i := 0; i < items; i++ {
				it.Next()
			}
			it.Release()
		}
		browse() // warm the pooled iterator up to this browse's size
		if got := testing.AllocsPerRun(50, browse); got > 1 {
			t.Errorf("browse of %d items: %.1f allocs, budget 1", items, got)
		}
	}
}
