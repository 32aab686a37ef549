package pvoronoi

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// mkObj returns a fresh object for durable-mode update traffic.
func mkObj(rng *rand.Rand, id ID) *Object {
	lo := Point{rng.Float64() * 900, rng.Float64() * 900}
	region := NewRect(lo, Point{lo[0] + 5 + rng.Float64()*20, lo[1] + 5 + rng.Float64()*20})
	o := &Object{ID: id, Region: region}
	o.Instances = SampleUniform(region, 20, int64(id))
	return o
}

// rebuildOracle builds a fresh index over the same object set and checks
// that both indexes answer the same queries identically — the "no
// acknowledged update lost" acceptance check.
func rebuildOracle(t *testing.T, got *Index, rng *rand.Rand) {
	t.Helper()
	oracleDB := NewDB(got.DB().Domain)
	for _, o := range got.DB().Objects() {
		if err := oracleDB.Add(o); err != nil {
			t.Fatal(err)
		}
	}
	oracle, err := Build(oracleDB, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		q := Point{rng.Float64() * 1000, rng.Float64() * 1000}
		a, err := got.PossibleNN(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := oracle.PossibleNN(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("q=%v: recovered %d candidates, rebuilt oracle %d", q, len(a), len(b))
		}
		for j := range a {
			if a[j].ID != b[j].ID {
				t.Fatalf("q=%v: candidate %d differs (%d vs %d)", q, j, a[j].ID, b[j].ID)
			}
		}
	}
}

func TestDurableCleanRestart(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(21))

	d, err := OpenDurable(dir, buildSmallDB(t, 60, true), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !d.Recovery().Rebuilt {
		t.Fatal("first open should build from the bootstrap database")
	}
	var ids []ID
	for i := 0; i < 12; i++ {
		id := ID(1000 + i)
		ids = append(ids, id)
		if _, err := d.InsertBatch([]*Object{mkObj(rng, id)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.DeleteBatch(ids[:4]); err != nil {
		t.Fatal(err)
	}
	wantLen := d.Len()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: checkpoint exists, bootstrap db is ignored (pass nil).
	d2, err := OpenDurable(dir, nil, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.Recovery().Rebuilt {
		t.Fatal("restart rebuilt despite an existing checkpoint")
	}
	if d2.Recovery().Replayed != 0 {
		t.Fatalf("clean restart replayed %d updates, want 0", d2.Recovery().Replayed)
	}
	if d2.Len() != wantLen {
		t.Fatalf("restart lost objects: %d, want %d", d2.Len(), wantLen)
	}
	rebuildOracle(t, d2.Index, rng)
}

func TestDurableCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(22))

	d, err := OpenDurable(dir, buildSmallDB(t, 60, true), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Updates after the open-time checkpoint; then "crash" — no Close, no
	// checkpoint, the WAL alone carries them.
	var batch []*Object
	for i := 0; i < 10; i++ {
		batch = append(batch, mkObj(rng, ID(2000+i)))
	}
	if _, err := d.InsertBatch(batch); err != nil {
		t.Fatal(err)
	}
	if _, err := d.DeleteBatch([]ID{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ApplyBatch([]Update{
		DeleteOp(3),
		InsertOp(mkObj(rng, 3)), // atomic replacement
	}); err != nil {
		t.Fatal(err)
	}
	wantLen := d.Len()
	wantSeq := d.WALSeq()
	// Simulate the crash: release the log handle without checkpointing.
	if err := d.log.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenDurable(dir, nil, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	rec := d2.Recovery()
	if rec.Rebuilt {
		t.Fatal("crash recovery rebuilt despite a checkpoint")
	}
	if rec.Replayed == 0 {
		t.Fatal("crash recovery replayed nothing — acknowledged updates lost")
	}
	if d2.WALSeq() < wantSeq {
		t.Fatalf("recovered to seq %d, acknowledged through %d", d2.WALSeq(), wantSeq)
	}
	if d2.Len() != wantLen {
		t.Fatalf("crash lost objects: recovered %d, want %d", d2.Len(), wantLen)
	}
	for _, o := range batch {
		if d2.DB().Get(o.ID) == nil {
			t.Fatalf("acknowledged insert %d lost in the crash", o.ID)
		}
	}
	for _, id := range []ID{0, 1, 2} {
		if d2.DB().Get(id) != nil {
			t.Fatalf("acknowledged delete of %d lost in the crash", id)
		}
	}
	rebuildOracle(t, d2.Index, rng)

	// The open-time checkpoint collapsed the tail: a third open replays 0.
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	d3, err := OpenDurable(dir, nil, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer d3.Close()
	if d3.Recovery().Replayed != 0 {
		t.Fatalf("post-checkpoint open replayed %d updates, want 0", d3.Recovery().Replayed)
	}
	if d3.Len() != wantLen {
		t.Fatalf("third open has %d objects, want %d", d3.Len(), wantLen)
	}
}

func TestDurableCrashBeforeFirstCheckpointWindow(t *testing.T) {
	// Crash in the narrow window where updates hit the WAL but the first
	// checkpoint never completed: recovery rebuilds from the bootstrap
	// database and replays the whole log.
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(23))

	d, err := OpenDurable(dir, buildSmallDB(t, 50, false), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.InsertBatch([]*Object{mkObj(rng, 3000), mkObj(rng, 3001)}); err != nil {
		t.Fatal(err)
	}
	d.log.Close() // crash

	// Wipe the checkpoint, leaving only the WAL — the pre-first-checkpoint
	// state on disk.
	ckpts, err := filepath.Glob(filepath.Join(dir, "ckpt-*"))
	if err != nil || len(ckpts) == 0 {
		t.Fatalf("no checkpoint files to wipe: %v", err)
	}
	for _, c := range ckpts {
		if err := os.Remove(c); err != nil {
			t.Fatal(err)
		}
	}

	d2, err := OpenDurable(dir, buildSmallDB(t, 50, false), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if !d2.Recovery().Rebuilt {
		t.Fatal("expected a rebuild from the bootstrap database")
	}
	if d2.Recovery().Replayed == 0 {
		t.Fatal("expected WAL replay on top of the rebuild")
	}
	if d2.DB().Get(3000) == nil || d2.DB().Get(3001) == nil {
		t.Fatal("acknowledged inserts lost without a checkpoint")
	}
	rebuildOracle(t, d2.Index, rng)
}

func TestDurableCheckpointSkipsWhenClean(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, buildSmallDB(t, 40, false), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	// Open already checkpointed; an immediate second checkpoint is a no-op.
	st, err := d.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Skipped {
		t.Fatal("checkpoint of an unchanged index was not skipped")
	}
	// Queries don't dirty the epoch.
	if _, err := d.Query(Point{500, 500}); err != nil {
		t.Fatal(err)
	}
	if st, _ = d.Checkpoint(); !st.Skipped {
		t.Fatal("checkpoint after read-only traffic was not skipped")
	}
	// An update dirties it.
	rng := rand.New(rand.NewSource(24))
	if _, err := d.InsertBatch([]*Object{mkObj(rng, 4000)}); err != nil {
		t.Fatal(err)
	}
	st, err = d.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if st.Skipped {
		t.Fatal("checkpoint after an update was skipped")
	}
	if st.Seq != d.WALSeq() {
		t.Fatalf("checkpoint at seq %d, index at %d", st.Seq, d.WALSeq())
	}
}

// TestCheckpointConcurrentWithWrites runs Checkpoint calls head-to-head
// with a stream of write batches: with MVCC serialization the checkpoint
// pins a version and streams it off-lock, so neither side blocks the other.
// Every checkpoint must cover a consistent prefix (its WAL sequence is one
// the index actually published), every write must succeed, and a recovery
// from the final state must equal the live index.
func TestCheckpointConcurrentWithWrites(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(26))
	d, err := OpenDurable(dir, buildSmallDB(t, 120, true), testOptions())
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	ckptErr := make(chan error, 1)
	checkpoints := 0
	go func() {
		defer close(ckptErr)
		for {
			select {
			case <-done:
				return
			default:
			}
			st, err := d.Checkpoint()
			if err != nil {
				ckptErr <- err
				return
			}
			if !st.Skipped {
				checkpoints++
				if st.Seq > d.WALSeq() {
					ckptErr <- fmt.Errorf("checkpoint covers seq %d beyond the index's %d", st.Seq, d.WALSeq())
					return
				}
			}
		}
	}()

	// Writer: 30 batches while the checkpoint loop spins. None may block on
	// a checkpoint in progress (a deadlock here hangs the test).
	for round := 0; round < 30; round++ {
		objs := make([]*Object, 4)
		for i := range objs {
			objs[i] = mkObj(rng, ID(6000+round*4+i))
		}
		if _, err := d.InsertBatch(objs); err != nil {
			t.Fatal(err)
		}
		ids := []ID{objs[0].ID, objs[1].ID}
		if _, err := d.DeleteBatch(ids); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	if err := <-ckptErr; err != nil {
		t.Fatal(err)
	}
	if checkpoints == 0 {
		t.Fatal("no checkpoint completed during the write storm")
	}

	wantLen := d.Len()
	wantSeq := d.WALSeq()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery from the concurrent checkpoints + WAL tail equals the live
	// state at close.
	d2, err := OpenDurable(dir, nil, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.Len() != wantLen {
		t.Fatalf("recovered %d objects, want %d", d2.Len(), wantLen)
	}
	if d2.WALSeq() < wantSeq {
		t.Fatalf("recovered to seq %d, acknowledged through %d", d2.WALSeq(), wantSeq)
	}
	rebuildOracle(t, d2.Index, rng)
}
