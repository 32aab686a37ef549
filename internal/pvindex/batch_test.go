package pvindex

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"pvoronoi/internal/bruteforce"
	"pvoronoi/internal/geom"
	"pvoronoi/internal/pagestore"
	"pvoronoi/internal/uncertain"
	"pvoronoi/internal/wal"
)

// newObj makes a small test object at a random position within span.
func newObj(rng *rand.Rand, id uncertain.ID, d int, span, side float64) *uncertain.Object {
	lo := make(geom.Point, d)
	hi := make(geom.Point, d)
	for j := 0; j < d; j++ {
		lo[j] = rng.Float64() * (span - side)
		hi[j] = lo[j] + 1 + rng.Float64()*(side-1)
	}
	return &uncertain.Object{ID: id, Region: geom.Rect{Lo: lo, Hi: hi}}
}

// assertMatchesBruteforce checks PossibleNN answers against the brute-force
// oracle over the index's database at many random points.
func assertMatchesBruteforce(t *testing.T, ix *Index, rng *rand.Rand, span float64, d, iters int) {
	t.Helper()
	for i := 0; i < iters; i++ {
		q := make(geom.Point, d)
		for j := range q {
			q[j] = rng.Float64() * span
		}
		got, err := ix.PossibleNN(q)
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDs(idsOf(got), bruteforce.PossibleNN(ix.DB(), q)) {
			t.Fatalf("query %v: index disagrees with brute force", q)
		}
	}
}

func TestApplyBatchMixedMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	db := randomDB(rng, 120, 2, 900, 35, false)
	ix, err := Build(db, testConfig())
	if err != nil {
		t.Fatal(err)
	}

	// Several mixed batches: inserts of fresh IDs interleaved with deletes
	// of random survivors (picked from the current version's database — the
	// bootstrap handle is version 1's immutable snapshot).
	nextID := uncertain.ID(5000)
	for round := 0; round < 4; round++ {
		cur := ix.DB()
		var ups []Update
		for i := 0; i < 6; i++ {
			ups = append(ups, Update{Op: OpInsert, Object: newObj(rng, nextID, 2, 850, 30)})
			nextID++
		}
		for i := 0; i < 4; i++ {
			victim := cur.Objects()[rng.Intn(cur.Len())].ID
			// Avoid deleting the same ID twice within one batch.
			dup := false
			for _, u := range ups {
				if u.Op == OpDelete && u.ID == victim {
					dup = true
				}
			}
			if dup {
				continue
			}
			ups = append(ups, Update{Op: OpDelete, ID: victim})
		}
		sts, err := ix.ApplyBatch(ups)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if len(sts) != len(ups) {
			t.Fatalf("round %d: %d stats for %d ops", round, len(sts), len(ups))
		}
		assertMatchesBruteforce(t, ix, rng, 900, 2, 40)
	}
}

func TestApplyBatchInteractingInserts(t *testing.T) {
	// A tight cluster of batch inserts forces the staged UBRs through the
	// warm-started finalization: every newcomer's UBR intersects the others'.
	rng := rand.New(rand.NewSource(12))
	db := randomDB(rng, 60, 2, 600, 30, false)
	ix, err := Build(db, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	var ups []Update
	for i := 0; i < 8; i++ {
		lo := geom.Point{280 + float64(i)*4, 280 + float64(i)*3}
		o := &uncertain.Object{
			ID:     uncertain.ID(9000 + i),
			Region: geom.NewRect(lo, geom.Point{lo[0] + 15, lo[1] + 15}),
		}
		ups = append(ups, Update{Op: OpInsert, Object: o})
	}
	// And a delete in the middle of the cluster: the inserts after it are a
	// second run, staged over the post-delete state.
	victim := db.Objects()[0].ID
	mid := append([]Update{}, ups[:4]...)
	mid = append(mid, Update{Op: OpDelete, ID: victim})
	mid = append(mid, ups[4:]...)
	if _, err := ix.ApplyBatch(mid); err != nil {
		t.Fatal(err)
	}
	assertMatchesBruteforce(t, ix, rng, 600, 2, 80)
}

// malformedObjects are 2-d objects no batch may carry: a record's layout is
// fixed by the region's dimension, so an instance of another dimension cannot
// be stored (it used to panic in encodeRecord — after the batch was logged),
// and a pdf that does not sum to 1 or leaves its region answers queries with
// probabilities that mean nothing. A NaN corner, position or probability
// passed every comparison the checks make; it answers nothing at all.
func malformedObjects(id uncertain.ID) map[string]*uncertain.Object {
	region := geom.NewRect(geom.Point{100, 100}, geom.Point{120, 120})
	with := func(ins ...uncertain.Instance) *uncertain.Object {
		return &uncertain.Object{ID: id, Region: region, Instances: ins}
	}
	nan := math.NaN()
	return map[string]*uncertain.Object{
		"short Pos":                 with(uncertain.Instance{Pos: geom.Point{110}, Prob: 1}),
		"long Pos":                  with(uncertain.Instance{Pos: geom.Point{110, 110, 110}, Prob: 1}),
		"probabilities sum to 0.25": with(uncertain.Instance{Pos: geom.Point{110, 110}, Prob: 0.25}),
		"instance outside region":   with(uncertain.Instance{Pos: geom.Point{110, 130}, Prob: 1}),
		"short Hi corner":           {ID: id, Region: geom.Rect{Lo: geom.Point{100, 100}, Hi: geom.Point{120}}},
		"NaN lo":                    {ID: id, Region: geom.Rect{Lo: geom.Point{nan, 100}, Hi: geom.Point{120, 120}}},
		"+Inf hi":                   {ID: id, Region: geom.Rect{Lo: geom.Point{100, 100}, Hi: geom.Point{120, math.Inf(1)}}},
		"NaN position":              with(uncertain.Instance{Pos: geom.Point{110, nan}, Prob: 1}),
		"NaN probability":           with(uncertain.Instance{Pos: geom.Point{110, 110}, Prob: 0.5}, uncertain.Instance{Pos: geom.Point{111, 111}, Prob: nan}),
	}
}

func TestApplyBatchValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	db := randomDB(rng, 40, 2, 500, 25, false)
	log, err := wal.Open(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	cfg := testConfig()
	cfg.WAL = log
	ix, err := Build(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n0 := db.Len()

	// A malformed object fails the whole batch — and a single Insert, and a
	// Build — before anything reaches the log; the next valid batch succeeds.
	for name, bad := range malformedObjects(7100) {
		seq := log.LastSeq()
		if _, err := ix.ApplyBatch([]Update{
			{Op: OpInsert, Object: newObj(rng, 7101, 2, 450, 20)},
			{Op: OpInsert, Object: bad},
		}); err == nil {
			t.Fatalf("%s: batch accepted", name)
		}
		if _, err := ix.Insert(bad); err == nil {
			t.Fatalf("%s: Insert accepted", name)
		}
		if log.LastSeq() != seq || ix.WALSeq() != seq || ix.DB().Len() != n0 {
			t.Fatalf("%s: refused batch left a trace: log at %d, index at %d (was %d), %d objects (was %d)",
				name, log.LastSeq(), ix.WALSeq(), seq, ix.DB().Len(), n0)
		}
		if _, err := ix.ApplyBatch([]Update{{Op: OpInsert, Object: newObj(rng, 7100, 2, 450, 20)}, {Op: OpDelete, ID: 7100}}); err != nil {
			t.Fatalf("%s: valid batch after the refused one: %v", name, err)
		}
		seeded := uncertain.NewDB(db.Domain)
		seeded.Add(db.Objects()[0])
		seeded.Add(bad) // DB.Add reads the dimension off Region.Lo alone
		if _, err := Build(seeded, testConfig()); err == nil {
			t.Fatalf("%s: Build accepted", name)
		}
	}

	// Duplicate of an existing ID fails the whole batch, applying nothing.
	_, err = ix.ApplyBatch([]Update{
		{Op: OpInsert, Object: newObj(rng, 7000, 2, 450, 20)},
		{Op: OpInsert, Object: newObj(rng, 0, 2, 450, 20)}, // ID 0 exists
	})
	if !errors.Is(err, uncertain.ErrDuplicateID) {
		t.Fatalf("duplicate ID: got %v", err)
	}
	if ix.DB().Len() != n0 {
		t.Fatalf("failed batch mutated the database (%d -> %d objects)", n0, ix.DB().Len())
	}

	// Duplicate within the batch itself.
	o := newObj(rng, 7001, 2, 450, 20)
	_, err = ix.ApplyBatch([]Update{{Op: OpInsert, Object: o}, {Op: OpInsert, Object: o}})
	if !errors.Is(err, uncertain.ErrDuplicateID) {
		t.Fatalf("in-batch duplicate: got %v", err)
	}

	// Unknown delete.
	_, err = ix.ApplyBatch([]Update{{Op: OpDelete, ID: 424242}})
	if !errors.Is(err, uncertain.ErrUnknownID) {
		t.Fatalf("unknown delete: got %v", err)
	}

	// Delete-then-reinsert of the same ID within one batch is legal.
	reborn := newObj(rng, db.Objects()[1].ID, 2, 450, 20)
	if _, err := ix.ApplyBatch([]Update{
		{Op: OpDelete, ID: reborn.ID},
		{Op: OpInsert, Object: reborn},
	}); err != nil {
		t.Fatalf("delete+reinsert batch: %v", err)
	}
	if ix.DB().Len() != n0 {
		t.Fatalf("delete+reinsert changed cardinality (%d -> %d)", n0, ix.DB().Len())
	}
	assertMatchesBruteforce(t, ix, rng, 500, 2, 60)

	// Empty batch is a no-op.
	if sts, err := ix.ApplyBatch(nil); err != nil || sts != nil {
		t.Fatalf("empty batch: %v %v", sts, err)
	}
}

// TestApplyBatchKeepsRecordCacheCoherent drives mixed batches — deletes that
// rewrite their neighbours' records, fresh inserts, and same-ID replacements
// carrying a new pdf — at d = 2 and 3, and after the build and every batch
// holds the record each object's secondary-index entry stores to the
// database object Step 2 reads (assertPDFsMatchRecords), Instances to that
// object's own slice, and Step 1 to brute force.
func TestApplyBatchKeepsRecordCacheCoherent(t *testing.T) {
	for _, d := range []int{2, 3} {
		t.Run(fmt.Sprintf("d%d", d), func(t *testing.T) {
			rng := rand.New(rand.NewSource(14))
			const span = 700
			withPDF := func(o *uncertain.Object) *uncertain.Object {
				o.Instances = uncertain.SampleInstances(o.Region, uncertain.PDFUniform, 1+rng.Intn(40), rng)
				return o
			}
			ix, err := Build(randomDB(rng, 80, d, span, 30, true), testConfig())
			if err != nil {
				t.Fatal(err)
			}
			assertPDFsMatchRecords(t, ix)
			nextID := uncertain.ID(8000)
			for round := 0; round < 4; round++ {
				objs := ix.DB().Objects()
				perm := rng.Perm(len(objs))
				var ups []Update
				for k := 0; k < 6; k++ {
					victim := objs[perm[k]]
					ups = append(ups, Update{Op: OpDelete, ID: victim.ID})
					if k%2 == 0 {
						// Same ID, same region, a new pdf: one atomic replacement.
						o := &uncertain.Object{ID: victim.ID, Region: victim.Region}
						ups = append(ups, Update{Op: OpInsert, Object: withPDF(o)})
					}
					nextID++
					ups = append(ups, Update{Op: OpInsert, Object: withPDF(newObj(rng, nextID, d, span-50, 25))})
				}
				if _, err := ix.ApplyBatch(ups); err != nil {
					t.Fatal(err)
				}
				assertPDFsMatchRecords(t, ix)
				for _, o := range ix.DB().Objects() {
					ins, err := ix.Instances(o.ID)
					if err != nil {
						t.Fatal(err)
					}
					if len(ins) != len(o.Instances) || (len(ins) > 0 && &ins[0] != &o.Instances[0]) {
						t.Fatalf("object %d: Instances is not the database object's own slice", o.ID)
					}
				}
				assertMatchesBruteforce(t, ix, rng, span, d, 40)
			}
		})
	}
}

func TestApplyBatchWALRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	db := randomDB(rng, 100, 2, 800, 30, true)
	ix, err := Build(db, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	walDir := t.TempDir()
	log, err := wal.Open(walDir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ix.AttachWAL(log)

	applyRound := func(round int) {
		cur := ix.DB()
		var ups []Update
		for i := 0; i < 5; i++ {
			ups = append(ups, Update{Op: OpInsert, Object: newObj(rng, uncertain.ID(6000+round*10+i), 2, 750, 25)})
		}
		ups = append(ups, Update{Op: OpDelete, ID: cur.Objects()[rng.Intn(cur.Len())].ID})
		if _, err := ix.ApplyBatch(ups); err != nil {
			t.Fatal(err)
		}
	}

	// Two batches, then a snapshot (with a consistent DB copy), then two
	// more batches that only the WAL knows about.
	applyRound(0)
	applyRound(1)
	var snap bytes.Buffer
	var dbAtSnap *uncertain.DB
	snapSeq, err := ix.SnapshotWith(&snap, func(cur *uncertain.DB) error {
		dbAtSnap = cur.Clone()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if snapSeq == 0 {
		t.Fatal("snapshot carries no WAL sequence")
	}
	applyRound(2)
	applyRound(3)
	liveSeq := ix.WALSeq()
	if liveSeq <= snapSeq {
		t.Fatalf("live seq %d not beyond snapshot seq %d", liveSeq, snapSeq)
	}

	// "Crash": recover from snapshot + WAL tail on a fresh process's state.
	log2, err := wal.Open(walDir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	recovered, err := LoadFrom(bytes.NewReader(snap.Bytes()), dbAtSnap)
	if err != nil {
		t.Fatal(err)
	}
	if recovered.WALSeq() != snapSeq {
		t.Fatalf("loaded snapshot at seq %d, want %d", recovered.WALSeq(), snapSeq)
	}
	recovered.AttachWAL(log2)
	replayed, err := recovered.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if replayed == 0 {
		t.Fatal("recovery replayed nothing")
	}
	if recovered.WALSeq() != liveSeq {
		t.Fatalf("recovered to seq %d, want %d", recovered.WALSeq(), liveSeq)
	}

	// The recovered index must agree with brute force over its own replayed
	// database — and that database must equal the live one.
	if recovered.DB().Len() != ix.DB().Len() {
		t.Fatalf("recovered database has %d objects, live has %d", recovered.DB().Len(), ix.DB().Len())
	}
	for _, o := range ix.DB().Objects() {
		if recovered.DB().Get(o.ID) == nil {
			t.Fatalf("object %d missing after recovery", o.ID)
		}
	}
	assertMatchesBruteforce(t, recovered, rng, 800, 2, 100)

	// And answer queries identically to the live index.
	for i := 0; i < 60; i++ {
		q := geom.Point{rng.Float64() * 800, rng.Float64() * 800}
		a, err := ix.PossibleNN(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := recovered.PossibleNN(q)
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDs(idsOf(a), idsOf(b)) {
			t.Fatalf("query %v: live %v recovered %v", q, idsOf(a), idsOf(b))
		}
	}
}

func TestRecoveryStopsAtTornTail(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	base := randomDB(rng, 60, 2, 600, 25, false)
	pristine := base.Clone()

	walDir := t.TempDir()
	log, err := wal.Open(walDir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.WAL = log
	ix, err := Build(base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ups []Update
	for i := 0; i < 8; i++ {
		ups = append(ups, Update{Op: OpInsert, Object: newObj(rng, uncertain.ID(3000+i), 2, 550, 20)})
	}
	for _, u := range ups {
		if _, err := ix.ApplyBatch([]Update{u}); err != nil {
			t.Fatal(err)
		}
	}
	log.Close()

	// Tear the final record: a crash mid-commit of the last insert.
	segs, err := filepath.Glob(filepath.Join(walDir, "seg-*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	last := segs[len(segs)-1]
	info, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, info.Size()-5); err != nil {
		t.Fatal(err)
	}

	// Recover onto a rebuild of the pristine database (the no-checkpoint
	// path: replay everything).
	log2, err := wal.Open(walDir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	recovered, err := Build(pristine, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	recovered.AttachWAL(log2)
	replayed, err := recovered.Recover()
	if err != nil {
		t.Fatalf("recovery across torn tail: %v", err)
	}
	if replayed != len(ups)-1 {
		t.Fatalf("replayed %d updates, want %d (last one torn)", replayed, len(ups)-1)
	}
	// Oracle: the pristine database plus the intact prefix of updates.
	if recovered.DB().Len() != 60+len(ups)-1 {
		t.Fatalf("recovered database has %d objects, want %d", recovered.DB().Len(), 60+len(ups)-1)
	}
	if recovered.DB().Get(ups[len(ups)-1].Object.ID) != nil {
		t.Fatal("torn final insert was applied")
	}
	assertMatchesBruteforce(t, recovered, rng, 600, 2, 80)
}

// TestApplyBatchChurnWithConcurrentQueries interleaves batched writers with
// parallel readers; run with -race it verifies the staging phase (which
// holds only the read lock) never races queries.
func TestApplyBatchChurnWithConcurrentQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	db := randomDB(rng, 80, 2, 700, 30, true)
	ix, err := Build(db, testConfig())
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			qrng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				q := geom.Point{qrng.Float64() * 700, qrng.Float64() * 700}
				if _, err := ix.Snapshot(q); err != nil {
					errCh <- err
					return
				}
			}
		}(int64(100 + r))
	}

	// Writer: 12 rounds of mixed batches. Victims come from the current
	// version's database — immutable, so no lock is needed, and nobody else
	// writes concurrently.
	wrng := rand.New(rand.NewSource(200))
	for round := 0; round < 12; round++ {
		var ups []Update
		for i := 0; i < 4; i++ {
			ups = append(ups, Update{Op: OpInsert, Object: newObj(wrng, uncertain.ID(4000+round*4+i), 2, 650, 25)})
		}
		cur := ix.DB()
		ups = append(ups, Update{Op: OpDelete, ID: cur.Objects()[wrng.Intn(cur.Len())].ID})
		if _, err := ix.ApplyBatch(ups); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatalf("concurrent query failed: %v", err)
	default:
	}
	assertMatchesBruteforce(t, ix, wrng, 700, 2, 60)
}

func TestWALCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	o := newObj(rng, 77, 3, 400, 20)
	o.Instances = uncertain.SampleInstances(o.Region, uncertain.PDFUniform, 12, rng)
	for i, u := range []Update{
		{Op: OpInsert, Object: o},
		{Op: OpDelete, ID: 123},
	} {
		e, err := encodeUpdate(u)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeUpdate(wal.Record{Seq: uint64(i + 1), Type: e.Type, Payload: e.Payload})
		if err != nil {
			t.Fatal(err)
		}
		if got.Op != u.Op {
			t.Fatalf("op mismatch: %d vs %d", got.Op, u.Op)
		}
		if u.Op == OpInsert {
			if got.Object.ID != o.ID || !got.Object.Region.Equal(o.Region) || len(got.Object.Instances) != len(o.Instances) {
				t.Fatalf("insert round trip mangled the object: %+v", got.Object)
			}
			for j := range o.Instances {
				if got.Object.Instances[j].Prob != o.Instances[j].Prob {
					t.Fatalf("instance %d prob mismatch", j)
				}
			}
		} else if got.ID != u.ID {
			t.Fatalf("delete ID mismatch: %d vs %d", got.ID, u.ID)
		}
	}
	// Unknown record types are rejected.
	if _, err := decodeUpdate(wal.Record{Seq: 9, Type: wal.Type(99)}); err == nil {
		t.Fatal("unknown record type accepted")
	}
}

// TestMidApplyFailureRollsBack exercises a batch that dies mid-apply on a
// page-limited store. Under MVCC the working version is simply discarded:
// the published version keeps serving, queries stay correct against the
// pre-batch oracle, and — with no WAL attached — later writes and snapshots
// proceed normally.
func TestMidApplyFailureRollsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	db := randomDB(rng, 50, 2, 500, 25, true)
	// Find a page budget that lets the build succeed, then rebuild with
	// headroom for one small batch but not a fat one. COW shadow pages and
	// deferred frees mean an update needs some slack beyond the live set.
	probe, err := Build(db.Clone(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	live := probe.Store().Live()
	cfg := testConfig()
	cfg.Store = pagestore.NewLimited(pagestore.DefaultPageSize, live+40)
	ix, err := Build(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n0 := ix.DB().Len()

	var ups []Update
	for i := 0; i < 40; i++ {
		o := newObj(rng, uncertain.ID(5000+i), 2, 450, 20)
		o.Instances = uncertain.SampleInstances(o.Region, uncertain.PDFUniform, 80, rng)
		ups = append(ups, Update{Op: OpInsert, Object: o})
	}
	if _, err := ix.ApplyBatch(ups); err == nil {
		t.Skip("page limit not reached; cannot exercise the mid-apply path")
	}

	// The failed batch never published: cardinality is unchanged and every
	// query still agrees with the pre-batch brute-force oracle.
	if ix.DB().Len() != n0 {
		t.Fatalf("failed batch published: %d -> %d objects", n0, ix.DB().Len())
	}
	assertMatchesBruteforce(t, ix, rng, 500, 2, 40)

	// Without a WAL the rollback is complete: snapshots and further writes
	// keep working (the aborted batch's pages were returned to the store).
	var buf bytes.Buffer
	if err := ix.SaveTo(&buf); err != nil {
		t.Fatalf("snapshot after clean rollback refused: %v", err)
	}
	if _, err := ix.Insert(newObj(rng, 9999, 2, 450, 20)); err != nil {
		t.Fatalf("write after clean rollback refused: %v", err)
	}
	assertMatchesBruteforce(t, ix, rng, 500, 2, 40)
}

// TestMidApplyFailureWithWALPoisonsWrites is the durable-mode counterpart:
// once a batch has been fsynced to the WAL, a mid-apply failure must
// fail-stop the write and persistence paths (the log says committed, memory
// says rolled back — recovery is the only consistent way forward). Queries
// keep serving the intact published version.
func TestMidApplyFailureWithWALPoisonsWrites(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	db := randomDB(rng, 50, 2, 500, 25, true)
	probe, err := Build(db.Clone(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	live := probe.Store().Live()
	cfg := testConfig()
	cfg.Store = pagestore.NewLimited(pagestore.DefaultPageSize, live+40)
	log, err := wal.Open(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	cfg.WAL = log
	ix, err := Build(db, cfg)
	if err != nil {
		t.Fatal(err)
	}

	var ups []Update
	for i := 0; i < 40; i++ {
		o := newObj(rng, uncertain.ID(5000+i), 2, 450, 20)
		o.Instances = uncertain.SampleInstances(o.Region, uncertain.PDFUniform, 80, rng)
		ups = append(ups, Update{Op: OpInsert, Object: o})
	}
	if _, err := ix.ApplyBatch(ups); err == nil {
		t.Skip("page limit not reached; cannot exercise the mid-apply path")
	}

	// Queries still serve the last published version...
	assertMatchesBruteforce(t, ix, rng, 500, 2, 40)
	// ...but writes and snapshots are refused: the WAL holds a batch the
	// caller was told failed, and persisting around it would strand it.
	var buf bytes.Buffer
	if err := ix.SaveTo(&buf); err == nil {
		t.Fatal("snapshot of a damaged index was accepted")
	}
	if _, err := ix.SnapshotWith(&buf, nil); err == nil {
		t.Fatal("SnapshotWith on a damaged index was accepted")
	}
	if _, err := ix.ApplyBatch([]Update{{Op: OpInsert, Object: newObj(rng, 9999, 2, 450, 20)}}); err == nil {
		t.Fatal("write to a damaged index was accepted")
	}
}

// TestRecoveryNeverResurrectsStrandedBatch is the frame-boundary torn-write
// regression: a group commit whose update frames reached disk but whose
// sealing commit record did not leaves CRC-valid, barrier-less frames at the
// log tail. The first recovery drops them (never acknowledged), but if a new
// batch then appends after them, a naive replay would buffer the stranded
// frames into the same pending window as the new batch and its commit would
// apply them all — resurrecting a batch that was already reported dropped.
// The commit record's count payload must scope the apply to its own batch
// even when the log is reopened without sealed truncation.
func TestRecoveryNeverResurrectsStrandedBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	base := randomDB(rng, 50, 2, 600, 25, false)
	pristine := base.Clone()

	// Craft the crash artifact: one update frame, no sealing commit.
	walDir := t.TempDir()
	log, err := wal.Open(walDir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	stranded := newObj(rng, uncertain.ID(9001), 2, 550, 20)
	entry, err := encodeUpdate(Update{Op: OpInsert, Object: stranded})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := log.Append(entry); err != nil {
		t.Fatal(err)
	}
	log.Close()

	// First post-crash boot — deliberately without Sealed, modeling a log
	// whose stranded tail was never truncated. Recovery must drop the
	// stranded update, and a new acknowledged batch then appends after it.
	log2, err := wal.Open(walDir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(base, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ix.AttachWAL(log2)
	if replayed, err := ix.Recover(); err != nil || replayed != 0 {
		t.Fatalf("first recovery: replayed=%d err=%v, want 0 records applied", replayed, err)
	}
	if ix.DB().Get(stranded.ID) != nil {
		t.Fatal("first recovery applied the stranded, unacknowledged insert")
	}
	acked := newObj(rng, uncertain.ID(9002), 2, 550, 20)
	if _, err := ix.ApplyBatch([]Update{{Op: OpInsert, Object: acked}}); err != nil {
		t.Fatal(err)
	}
	log2.Close()

	// Second boot: replay now sees stranded frame, new batch, commit. Only
	// the acknowledged batch may apply — recovered state must match what the
	// first boot reported, never diverge by resurrecting the stranded write.
	log3, err := wal.Open(walDir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer log3.Close()
	recovered, err := Build(pristine, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	recovered.AttachWAL(log3)
	replayed, err := recovered.Recover()
	if err != nil {
		t.Fatalf("second recovery: %v", err)
	}
	if replayed != 1 {
		t.Fatalf("second recovery replayed %d updates, want 1 (the acked batch only)", replayed)
	}
	if recovered.DB().Get(stranded.ID) != nil {
		t.Fatal("second recovery resurrected the stranded batch via the next batch's commit")
	}
	if recovered.DB().Get(acked.ID) == nil {
		t.Fatal("second recovery lost the acknowledged batch")
	}
	assertMatchesBruteforce(t, recovered, rng, 600, 2, 40)
}

// TestRecoveryCheckpointRecordClearsPending: a checkpoint record can only
// land between group commits, so update frames still buffered when one
// arrives are a stranded torn batch — the barrier must discard them rather
// than let a later commit adopt them.
func TestRecoveryCheckpointRecordClearsPending(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	base := randomDB(rng, 40, 2, 600, 25, false)

	walDir := t.TempDir()
	log, err := wal.Open(walDir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	stranded := newObj(rng, uncertain.ID(9101), 2, 550, 20)
	entry, err := encodeUpdate(Update{Op: OpInsert, Object: stranded})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := log.Append(entry); err != nil {
		t.Fatal(err)
	}
	if _, _, err := log.Append(wal.Entry{Type: wal.TypeCheckpoint, Payload: []byte("ckpt")}); err != nil {
		t.Fatal(err)
	}
	// A legacy commit (empty payload) after the checkpoint: without the
	// barrier clearing pending it would apply the stranded update.
	acked := newObj(rng, uncertain.ID(9102), 2, 550, 20)
	entry2, err := encodeUpdate(Update{Op: OpInsert, Object: acked})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := log.Append(entry2, wal.Entry{Type: wal.TypeCommit}); err != nil {
		t.Fatal(err)
	}
	log.Close()

	log2, err := wal.Open(walDir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	ix, err := Build(base, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ix.AttachWAL(log2)
	replayed, err := ix.Recover()
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	if replayed != 1 {
		t.Fatalf("replayed %d updates, want 1", replayed)
	}
	if ix.DB().Get(stranded.ID) != nil {
		t.Fatal("checkpoint barrier failed to discard the stranded update")
	}
	if ix.DB().Get(acked.ID) == nil {
		t.Fatal("committed update after the checkpoint barrier was lost")
	}
}

// TestRecoveryRejectsPoisonRecord: a log written before batches were checked
// for malformed objects may hold one, sealed by its commit and acknowledged
// only by the panic that followed. Replay validates each commit group like
// ApplyBatch does, so such a log ends in an error naming the commit — not in
// the panic again — and the index stays at the state it had. (Since the
// fixed-width codec only the well-shaped poisons can be logged at all.)
func TestRecoveryRejectsPoisonRecord(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	base := randomDB(rng, 40, 2, 600, 25, false)
	for name, bad := range malformedObjects(9201) {
		t.Run(name, func(t *testing.T) {
			walDir := t.TempDir()
			log, err := wal.Open(walDir, wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer log.Close()
			good, err := encodeUpdate(Update{Op: OpInsert, Object: newObj(rng, 9200, 2, 550, 20)})
			if err != nil {
				t.Fatal(err)
			}
			poison, err := encodeUpdate(Update{Op: OpInsert, Object: bad})
			if err != nil {
				// A ragged object — a corner or a position of the wrong
				// length — has no fixed-width encoding: the WAL codec
				// refuses it, so no log can hold one.
				ragged := len(bad.Region.Hi) != bad.Dim()
				for _, in := range bad.Instances {
					ragged = ragged || len(in.Pos) != bad.Dim()
				}
				if !ragged {
					t.Fatalf("encoding a well-shaped poison: %v", err)
				}
				return
			}
			one := []byte{1, 0, 0, 0}
			if _, _, err := log.Append(good, wal.Entry{Type: wal.TypeCommit, Payload: one}); err != nil {
				t.Fatal(err)
			}
			_, commitSeq, err := log.Append(poison, wal.Entry{Type: wal.TypeCommit, Payload: one})
			if err != nil {
				t.Fatal(err)
			}

			ix, err := Build(base.Clone(), testConfig())
			if err != nil {
				t.Fatal(err)
			}
			ix.AttachWAL(log)
			_, err = ix.Recover()
			if want := fmt.Sprintf("commit %d", commitSeq); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("replay over a poison record: got %v, want an error naming %q", err, want)
			}
			if ix.DB().Len() != base.Len() || ix.WALSeq() != 0 {
				t.Fatalf("failed replay published: %d objects at seq %d", ix.DB().Len(), ix.WALSeq())
			}
			assertMatchesBruteforce(t, ix, rng, 600, 2, 20)
		})
	}
}
