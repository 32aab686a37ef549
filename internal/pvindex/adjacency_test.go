package pvindex

import (
	"bytes"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"pvoronoi/internal/adjgraph"
	"pvoronoi/internal/geom"
	"pvoronoi/internal/uncertain"
)

// verifyAdjacency is the adjacency-graph invariant oracle: the current
// version's graph must equal a from-scratch recomputation of the UBR-
// intersection relation over the stored UBRs — one row per live object,
// carrying that object's stored UBR and exactly the IDs of every other
// object whose stored UBR intersects it.
func verifyAdjacency(t *testing.T, ix *Index, label string) {
	t.Helper()
	v := ix.current.Load()
	if v.adj == nil {
		t.Fatalf("%s: version has no adjacency graph", label)
	}
	objs := v.db.Objects()
	ubrs := make(map[uint32]geom.Rect, len(objs))
	for _, o := range objs {
		ubr, ok := ix.UBR(o.ID)
		if !ok {
			t.Fatalf("%s: object %d has no stored UBR", label, o.ID)
		}
		ubrs[uint32(o.ID)] = ubr
	}
	if v.adj.Len() != len(objs) {
		t.Fatalf("%s: graph has %d rows, database has %d objects", label, v.adj.Len(), len(objs))
	}
	edges := 0
	for id, ubr := range ubrs {
		row, ok := v.adj.Get(id)
		if !ok {
			t.Fatalf("%s: object %d missing from graph", label, id)
		}
		if !row.UBR.Equal(ubr) {
			t.Fatalf("%s: object %d row UBR %v != stored UBR %v", label, id, row.UBR, ubr)
		}
		want := map[uint32]bool{}
		for nid, nubr := range ubrs {
			if nid != id && nubr.Intersects(ubr) {
				want[nid] = true
			}
		}
		if len(row.Neighbors) != len(want) {
			t.Fatalf("%s: object %d has %d neighbors, want %d (%v vs %v)",
				label, id, len(row.Neighbors), len(want), row.Neighbors, want)
		}
		for _, n := range row.Neighbors {
			if !want[n] {
				t.Fatalf("%s: object %d lists non-intersecting neighbor %d", label, id, n)
			}
		}
		edges += len(want)
	}
	if v.adj.Edges() != edges {
		t.Fatalf("%s: graph edge counter %d != recomputed %d", label, v.adj.Edges(), edges)
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

// TestAdjacencyInvariantThroughChurn drives the graph through single-op and
// batched insert/delete/reinsert traffic — including a same-ID delete+insert
// in one batch — checking the invariant oracle after every publish.
func TestAdjacencyInvariantThroughChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const span, maxSide = 600.0, 25.0
	db := randomDB(rng, 50, 2, span, maxSide, false)
	ix, err := Build(db, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	verifyAdjacency(t, ix, "after build")

	nextID := uncertain.ID(50)
	for round := 0; round < 6; round++ {
		// A couple of single-op writes.
		if _, err := ix.Insert(randomObject(rng, nextID, 2, span, maxSide)); err != nil {
			t.Fatal(err)
		}
		nextID++
		verifyAdjacency(t, ix, "after insert")

		victims := ix.DB().Objects()
		victim := victims[rng.Intn(len(victims))].ID
		if _, err := ix.Delete(victim); err != nil {
			t.Fatal(err)
		}
		verifyAdjacency(t, ix, "after delete")

		// Reinsert the victim's ID elsewhere — the row must come back fresh.
		if _, err := ix.Insert(randomObject(rng, victim, 2, span, maxSide)); err != nil {
			t.Fatal(err)
		}
		verifyAdjacency(t, ix, "after reinsert")

		// A mixed batch: two inserts, one delete, and a same-ID
		// delete+reinsert (exercising the adjRemoved/adjChanged handoff).
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
		verifyAdjacency(t, ix, "after mixed batch")

		// An all-insert batch (the group-commit fast path).
		fast := make([]Update, 3)
		for i := range fast {
			fast[i] = Update{Op: OpInsert, Object: randomObject(rng, nextID, 2, span, maxSide)}
			nextID++
		}
		if _, err := ix.ApplyBatch(fast); err != nil {
			t.Fatal(err)
		}
		verifyAdjacency(t, ix, "after insert batch")
	}
}

// TestAdjacencyCOWIsolation pins a version and asserts — under concurrent
// writer churn and concurrent graph readers, so -race patrols the COW
// discipline — that the pinned graph's rows stay bit-identical (same *Row
// pointers) however many successors publish.
func TestAdjacencyCOWIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	const span, maxSide = 600.0, 25.0
	db := randomDB(rng, 40, 2, span, maxSide, false)
	ix, err := Build(db, testConfig())
	if err != nil {
		t.Fatal(err)
	}

	pinned := ix.Pin()
	defer pinned.Release()
	snap := make(map[uint32]*adjgraph.Row)
	pinned.v.adj.ForEach(func(id uint32, row *adjgraph.Row) bool {
		snap[id] = row
		return true
	})
	wantLen, wantEdges := pinned.v.adj.Len(), pinned.v.adj.Edges()

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
		qrng := rand.New(rand.NewSource(24))
		for i := 0; i < 40; i++ {
			q := geom.Point{qrng.Float64() * span, qrng.Float64() * span}
			if _, _, err := ix.KNNCandidatesOnly(q, 4); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()

	if pinned.v.adj.Len() != wantLen || pinned.v.adj.Edges() != wantEdges {
		t.Fatalf("pinned graph counters changed: %d/%d, want %d/%d",
			pinned.v.adj.Len(), pinned.v.adj.Edges(), wantLen, wantEdges)
	}
	count := 0
	pinned.v.adj.ForEach(func(id uint32, row *adjgraph.Row) bool {
		count++
		if snap[id] != row {
			t.Fatalf("pinned graph row %d changed under writer churn", id)
		}
		return true
	})
	if count != wantLen {
		t.Fatalf("pinned graph row count = %d, want %d", count, wantLen)
	}
}

// TestAdjacencyPersistRoundTrip saves an index that has seen update traffic
// and asserts the loaded graph is identical to the saved one (V3 images
// carry it verbatim — no rebuild).
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
	want := ix.current.Load().adj.Image()
	got := loaded.current.Load().adj.Image()
	if !reflect.DeepEqual(want, got) {
		t.Fatal("loaded adjacency graph differs from saved")
	}
	verifyAdjacency(t, loaded, "after load")

	// And the loaded graph keeps maintaining itself.
	if _, err := loaded.Insert(randomObject(rng, uncertain.ID(200), 2, span, maxSide)); err != nil {
		t.Fatal(err)
	}
	verifyAdjacency(t, loaded, "after post-load insert")
}

// TestBatchMaintainsAdjacencyIncrementally asserts the write path never
// rebuilds the graph: the rows recomputed by a batch are bounded by the rows
// whose UBRs the batch itself recomputed (newcomers plus Lemma 8 affected
// sets), far below the object count.
func TestBatchMaintainsAdjacencyIncrementally(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	const span, maxSide = 2000.0, 20.0
	db := randomDB(rng, 300, 2, span, maxSide, false)
	ix, err := Build(db, testConfig())
	if err != nil {
		t.Fatal(err)
	}

	before := ix.adjRecomputed.Load()
	batch := make([]Update, 4)
	for i := range batch {
		batch[i] = Update{Op: OpInsert, Object: randomObject(rng, uncertain.ID(1000+i), 2, span, maxSide)}
	}
	sts, err := ix.ApplyBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	affected := 0
	for _, st := range sts {
		affected += st.Affected
	}
	delta := ix.adjRecomputed.Load() - before
	if delta == 0 {
		t.Fatal("batch recomputed no adjacency rows")
	}
	if max := int64(len(batch) + affected); delta > max {
		t.Fatalf("batch recomputed %d adjacency rows, want <= %d (newcomers + affected)", delta, max)
	}
	if delta >= int64(ix.DB().Len()) {
		t.Fatalf("batch recomputed %d rows of a %d-object graph — looks like a full rebuild", delta, ix.DB().Len())
	}
	st := ix.Adjacency()
	if st.Rows != ix.DB().Len() || st.RowsRecomputed != ix.adjRecomputed.Load() {
		t.Fatalf("AdjacencyStats inconsistent: %+v", st)
	}
	verifyAdjacency(t, ix, "after incremental batch")
}
