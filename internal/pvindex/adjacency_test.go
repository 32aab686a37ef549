package pvindex

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"pvoronoi/internal/dataset"
	"pvoronoi/internal/geom"
	"pvoronoi/internal/uncertain"
)

// windowDegrees is every live object's degree in v as Index.Adjacency
// computes it: one octree window over the object's stored UBR.
func windowDegrees(t *testing.T, v *version) map[uint32]int {
	t.Helper()
	deg := v.windowDegrees()
	if len(deg) != v.db.Len() {
		t.Fatalf("window degrees for %d of %d objects", len(deg), v.db.Len())
	}
	return deg
}

// verifyDegrees is the degree oracle: in the current version every live
// object's window degree equals the O(n²) count over stored UBRs, and
// Index.Adjacency summarizes that list.
func verifyDegrees(t *testing.T, ix *Index, label string) {
	t.Helper()
	v := ix.current.Load()
	want := bruteDegrees(t, v)
	got := windowDegrees(t, v)
	if len(got) != len(want) {
		t.Fatalf("%s: %d window degrees for %d objects", label, len(got), len(want))
	}
	for id, n := range want {
		if got[id] != n {
			t.Fatalf("%s: object %d has window degree %d, brute force %d", label, id, got[id], n)
		}
	}
	degs := slices.Sorted(maps.Values(want))
	st := ix.Adjacency()
	if st.Rows != len(degs) || st.DegreeP50 != degs[(len(degs)-1)/2] || st.DegreeMax != degs[len(degs)-1] {
		t.Fatalf("%s: Adjacency() = %+v, brute-force degrees give rows %d, p50 %d, max %d",
			label, st, len(degs), degs[(len(degs)-1)/2], degs[len(degs)-1])
	}
}

func randomObject(rng *rand.Rand, id uncertain.ID, d int, span, maxSide float64) *uncertain.Object {
	lo := make(geom.Point, d)
	hi := make(geom.Point, d)
	for j := 0; j < d; j++ {
		lo[j] = rng.Float64() * (span - maxSide)
		hi[j] = lo[j] + 1 + rng.Float64()*(maxSide-1)
	}
	return &uncertain.Object{ID: id, Region: geom.Rect{Lo: lo, Hi: hi}}
}

// TestUBRDegreeMatchesBruteForce holds the window degree Index.Adjacency
// reports to the O(n²) count over stored UBRs after build, after mixed
// batches — a same-ID replace, an ID inserted and deleted by one batch, a
// delete-only batch — and after a save/load round trip, at d = 2, 3, 4, on
// uniform data and on clustered data in which every tenth object has a
// coincident twin (equal regions, hence equal UBRs, which touch everything
// each other touches).
func TestUBRDegreeMatchesBruteForce(t *testing.T) {
	refineFactorForTest(t, 0) // batches escalate, so stored UBRs shrink mid-run
	for _, d := range []int{2, 3, 4} {
		for _, clustered := range []bool{false, true} {
			t.Run(fmt.Sprintf("d%d/clustered=%v", d, clustered), func(t *testing.T) {
				p := dataset.SyntheticParams{N: 120, Dim: d, MaxSide: 150, Seed: int64(d), Clustered: clustered, Clusters: 8}
				db := dataset.Synthetic(p)
				if clustered {
					for i, o := range slices.Clone(db.Objects()) {
						if i%10 == 0 {
							twin := &uncertain.Object{ID: o.ID + 10_000, Region: o.Region.Clone()}
							if err := db.Add(twin); err != nil {
								t.Fatal(err)
							}
						}
					}
				}
				ix, err := Build(db, testConfig())
				if err != nil {
					t.Fatal(err)
				}
				verifyDegrees(t, ix, "after build")

				rng := rand.New(rand.NewSource(int64(50 + d)))
				span := dataset.DomainSpan
				nextID := uncertain.ID(20_000)
				fresh := func() Update {
					nextID++
					return Update{Op: OpInsert, Object: randomObject(rng, nextID, d, span, 600)}
				}
				victim := func() uncertain.ID {
					objs := ix.DB().Objects()
					return objs[rng.Intn(len(objs))].ID
				}
				replaced := victim()
				gone := fresh()
				dels := []Update{{Op: OpDelete, ID: victim()}}
				for dels[0].ID == replaced {
					dels[0].ID = victim()
				}
				for _, b := range []struct {
					label string
					ups   []Update
				}{
					{"a same-ID replace", []Update{{Op: OpDelete, ID: replaced}, {Op: OpInsert, Object: randomObject(rng, replaced, d, span, 600)}, fresh()}},
					{"an insert-then-delete", []Update{gone, fresh(), {Op: OpDelete, ID: gone.Object.ID}, fresh()}},
					{"a delete-only batch", dels},
				} {
					if _, err := ix.ApplyBatch(b.ups); err != nil {
						t.Fatalf("%s: %v", b.label, err)
					}
					verifyDegrees(t, ix, "after "+b.label)
				}

				var buf bytes.Buffer
				if err := ix.SaveTo(&buf); err != nil {
					t.Fatal(err)
				}
				loaded, err := LoadFrom(&buf, ix.DB())
				if err != nil {
					t.Fatal(err)
				}
				verifyDegrees(t, loaded, "after load")
				// The row counters are the live index's lifetime totals; a
				// loaded one starts at 0.
				got, want := loaded.Adjacency(), ix.Adjacency()
				if got.RowsRecomputed != 0 || got.RowsPatched != 0 || want.RowsRecomputed == 0 {
					t.Fatalf("loaded %+v, live %+v: want the counters at 0 after a load, moved by the batches", got, want)
				}
				got.RowsRecomputed, got.RowsPatched = want.RowsRecomputed, want.RowsPatched
				if got != want {
					t.Fatalf("loaded %+v, live %+v", got, want)
				}
				t.Logf("%+v, %d rows refined", ix.Adjacency(), ix.RefineCounters().RowsRefined)
			})
		}
	}
}

// TestAdjacencyInvariantThroughChurn drives the index through single-op and
// batched insert/delete/reinsert traffic — including a same-ID delete+insert
// in one batch — checking the degree oracle after every publish.
func TestAdjacencyInvariantThroughChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const span, maxSide = 600.0, 25.0
	db := randomDB(rng, 50, 2, span, maxSide, false)
	ix, err := Build(db, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	verifyDegrees(t, ix, "after build")

	nextID := uncertain.ID(50)
	for round := 0; round < 6; round++ {
		// A couple of single-op writes.
		if _, err := ix.Insert(randomObject(rng, nextID, 2, span, maxSide)); err != nil {
			t.Fatal(err)
		}
		nextID++
		verifyDegrees(t, ix, "after insert")

		victims := ix.DB().Objects()
		victim := victims[rng.Intn(len(victims))].ID
		if _, err := ix.Delete(victim); err != nil {
			t.Fatal(err)
		}
		verifyDegrees(t, ix, "after delete")

		// Reinsert the victim's ID elsewhere — its degree must be the new
		// UBR's.
		if _, err := ix.Insert(randomObject(rng, victim, 2, span, maxSide)); err != nil {
			t.Fatal(err)
		}
		verifyDegrees(t, ix, "after reinsert")

		// A mixed batch: two inserts, one delete, and a same-ID
		// delete+reinsert.
		victims = ix.DB().Objects()
		cycled := victims[rng.Intn(len(victims))].ID
		dropped := cycled
		for dropped == cycled {
			dropped = victims[rng.Intn(len(victims))].ID
		}
		batch := []Update{
			{Op: OpInsert, Object: randomObject(rng, nextID, 2, span, maxSide)},
			{Op: OpDelete, ID: cycled},
			{Op: OpInsert, Object: randomObject(rng, cycled, 2, span, maxSide)},
			{Op: OpDelete, ID: dropped},
			{Op: OpInsert, Object: randomObject(rng, nextID+1, 2, span, maxSide)},
		}
		nextID += 2
		if _, err := ix.ApplyBatch(batch); err != nil {
			t.Fatal(err)
		}
		verifyDegrees(t, ix, "after mixed batch")

		// An all-insert batch (the group-commit fast path).
		fast := make([]Update, 3)
		for i := range fast {
			fast[i] = Update{Op: OpInsert, Object: randomObject(rng, nextID, 2, span, maxSide)}
			nextID++
		}
		if _, err := ix.ApplyBatch(fast); err != nil {
			t.Fatal(err)
		}
		verifyDegrees(t, ix, "after insert batch")
	}
}

// TestAdjacencyCOWIsolation pins a version and asserts — under concurrent
// writer churn and concurrent readers, so -race patrols the COW discipline —
// that the pinned version's window degrees stay what they were however many
// successors publish.
func TestAdjacencyCOWIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	const span, maxSide = 600.0, 25.0
	db := randomDB(rng, 40, 2, span, maxSide, false)
	ix, err := Build(db, testConfig())
	if err != nil {
		t.Fatal(err)
	}

	pinned := ix.pin()
	defer ix.unpin(pinned)
	want := windowDegrees(t, pinned)

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		wrng := rand.New(rand.NewSource(23))
		nextID := uncertain.ID(1000)
		for i := 0; i < 8; i++ {
			if _, err := ix.Insert(randomObject(wrng, nextID, 2, span, maxSide)); err != nil {
				t.Error(err)
				return
			}
			if _, err := ix.Delete(nextID); err != nil {
				t.Error(err)
				return
			}
			nextID++
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			_ = ix.Adjacency()
		}
	}()
	wg.Wait()

	if got := windowDegrees(t, pinned); !maps.Equal(got, want) {
		t.Fatalf("pinned version's degrees changed under writer churn: %v, want %v", got, want)
	}
	if got := bruteDegrees(t, pinned); !maps.Equal(got, want) {
		t.Fatalf("pinned version's degrees %v, brute force %v", want, got)
	}
}

// TestAdjacencyPersistRoundTrip saves an index that has seen update traffic
// and asserts the loaded index has the same degrees, computed from its own
// octree, and keeps them right through a post-load insert.
func TestAdjacencyPersistRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	const span, maxSide = 600.0, 25.0
	db := randomDB(rng, 40, 2, span, maxSide, true)
	ix, err := Build(db, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := ix.Insert(randomObject(rng, uncertain.ID(100+i), 2, span, maxSide)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ix.Delete(uncertain.ID(101)); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := ix.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFrom(&buf, ix.DB())
	if err != nil {
		t.Fatal(err)
	}
	if want, got := windowDegrees(t, ix.current.Load()), windowDegrees(t, loaded.current.Load()); !maps.Equal(got, want) {
		t.Fatal("loaded index's degrees differ from the saved one's")
	}
	verifyDegrees(t, loaded, "after load")

	if _, err := loaded.Insert(randomObject(rng, uncertain.ID(200), 2, span, maxSide)); err != nil {
		t.Fatal(err)
	}
	verifyDegrees(t, loaded, "after post-load insert")
}

// TestBatchMaintainsAdjacencyIncrementally asserts a batch refines only the
// rows its own SE jobs compute — each newcomer's staging and at most one
// warm finalization, plus the affected rows whose UBR changed — far below the
// object count, never every row, even with every job's row fat.
func TestBatchMaintainsAdjacencyIncrementally(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	const span, maxSide = 2000.0, 20.0
	db := randomDB(rng, 300, 2, span, maxSide, false)
	ix, err := Build(db, aggressiveRefine(t))
	if err != nil {
		t.Fatal(err)
	}

	batch := make([]Update, 4)
	for i := range batch {
		batch[i] = Update{Op: OpInsert, Object: randomObject(rng, uncertain.ID(1000+i), 2, span, maxSide)}
	}
	sts, err := ix.ApplyBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	refined, rewritten := 0, 0
	for _, st := range sts {
		refined += st.SE.Refine.Rows
		rewritten += st.Affected - st.Unchanged
	}
	if refined < len(batch) {
		t.Fatalf("batch refines %d rows, fewer than its %d newcomers", refined, len(batch))
	}
	if limit := 2*len(batch) + rewritten; refined > limit {
		t.Fatalf("batch refines %d rows, want <= %d (newcomers twice + rewritten affected rows)", refined, limit)
	}
	if refined >= ix.DB().Len() {
		t.Fatalf("batch refines %d rows of %d — looks like a full pass", refined, ix.DB().Len())
	}
}
