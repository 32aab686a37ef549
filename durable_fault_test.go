package pvoronoi

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pvoronoi/internal/uncertain"
	"pvoronoi/internal/vfs"
	"pvoronoi/internal/wal"
)

// tortureModel tracks the object-ID set a prefix of the torture workload's
// batches produces. Batch i inserts IDs 5000+2i and 5001+2i and deletes
// bootstrap ID i.
func tortureModel(bootstrapN, batches int) map[ID]bool {
	m := make(map[ID]bool)
	for i := 0; i < bootstrapN; i++ {
		m[ID(i)] = true
	}
	for i := 0; i < batches; i++ {
		m[ID(5000+2*i)] = true
		m[ID(5001+2*i)] = true
		delete(m, ID(i))
	}
	return m
}

// tortureWorkload runs the scripted durable session over fs: open from the
// bootstrap database, apply six update batches with a checkpoint in the
// middle, and close. It returns how many batches were acknowledged and
// whether a batch was in flight when the first error hit. Deterministic:
// every run issues the identical operation sequence until its crash point.
func tortureWorkload(t *testing.T, dir string, fs vfs.FS) (acked int, inflight bool) {
	t.Helper()
	const batches = 6
	opts := testOptions()
	opts.FS = fs
	d, err := OpenDurable(dir, buildSmallDB(t, 25, false), opts)
	if err != nil {
		return 0, false
	}
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < batches; i++ {
		ups := []Update{
			InsertOp(mkObj(rng, ID(5000+2*i))),
			InsertOp(mkObj(rng, ID(5001+2*i))),
			DeleteOp(ID(i)),
		}
		if _, err := d.ApplyBatch(ups); err != nil {
			return acked, true
		}
		acked++
		if i == 2 {
			if _, err := d.Checkpoint(); err != nil {
				return acked, false
			}
		}
	}
	if err := d.Close(); err != nil {
		return acked, false
	}
	return acked, false
}

// TestDurableTortureCrashSweep is the ALICE-style crash-consistency sweep:
// run the scripted workload once fault-free to count its mutating filesystem
// operations, then re-run it crashing at every single one of them. After
// each crash the store is reopened on the real filesystem and must recover
// to exactly the bootstrap state plus a prefix of the logged batches — every
// acknowledged batch present, at most the one in-flight batch beyond that,
// and never a partial batch (group commits are atomic). Recovery itself must
// always succeed: a crash leaves torn tails and orphan temp files, none of
// which may be mistaken for corruption of acknowledged data.
func TestDurableTortureCrashSweep(t *testing.T) {
	const bootstrapN = 25

	// Dry run: learn the workload's fault-point count.
	dry := vfs.NewFaultFS(nil)
	acked, inflight := tortureWorkload(t, t.TempDir(), dry)
	if acked != 6 || inflight {
		t.Fatalf("fault-free workload acked %d batches (inflight=%v), want 6", acked, inflight)
	}
	total := dry.OpCount()
	if total < 20 {
		t.Fatalf("implausibly few fault points: %d", total)
	}
	stride := int64(1)
	if testing.Short() {
		stride = 7
	}
	t.Logf("sweeping %d fault points (stride %d)", total, stride)

	for n := int64(1); n <= total; n += stride {
		dir := t.TempDir()
		ffs := vfs.NewFaultFS(nil)
		ffs.CrashAt(n, 0.5)
		acked, inflight := tortureWorkload(t, dir, ffs)
		if !ffs.Crashed() {
			t.Fatalf("crash point %d never fired", n)
		}

		// Reboot on the real filesystem. The same bootstrap database stands
		// in for the operator supplying identical -data/-seed flags.
		d2, err := OpenDurable(dir, buildSmallDB(t, bootstrapN, false), testOptions())
		if err != nil {
			t.Fatalf("crash point %d: recovery failed: %v", n, err)
		}
		got := make(map[ID]bool)
		for _, o := range d2.DB().Objects() {
			got[o.ID] = true
		}
		// The recovered state must equal the model after M batches for some
		// M in [acked, acked+inflight]: fewer loses acknowledged writes, more
		// invents unacknowledged ones, anything else is a torn batch.
		matched := -1
		hi := acked
		if inflight {
			hi++
		}
		for m := acked; m <= hi; m++ {
			want := tortureModel(bootstrapN, m)
			if len(want) != len(got) {
				continue
			}
			ok := true
			for id := range want {
				if !got[id] {
					ok = false
					break
				}
			}
			if ok {
				matched = m
				break
			}
		}
		if matched < 0 {
			t.Fatalf("crash point %d: recovered %d objects, not a prefix state (acked %d batches, inflight %v)",
				n, len(got), acked, inflight)
		}
		// The recovered index must actually answer queries.
		if _, err := d2.PossibleNN(Point{500, 500}); err != nil {
			t.Fatalf("crash point %d: recovered index broken: %v", n, err)
		}
		if err := d2.Close(); err != nil {
			t.Fatalf("crash point %d: close after recovery: %v", n, err)
		}
	}
}

// corruptNewestCheckpoint flips one payload byte of the newest checkpoint's
// index file on disk, returning its base name.
func corruptNewestCheckpoint(t *testing.T, dir string) string {
	t.Helper()
	cands := listCheckpoints(vfs.OS, dir)
	if len(cands) < 2 {
		t.Fatalf("need >=2 checkpoints for a fallback test, have %d", len(cands))
	}
	path := filepath.Join(dir, cands[0].base+".pvidx")
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)/2] ^= 0x10
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return cands[0].base
}

// seedTwoCheckpoints builds a durable store with two retained checkpoints
// and a WAL tail beyond the older one, returning the IDs that must survive.
func seedTwoCheckpoints(t *testing.T, dir string) []ID {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	d, err := OpenDurable(dir, buildSmallDB(t, 40, false), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.InsertBatch([]*Object{mkObj(rng, 7000), mkObj(rng, 7001)}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Acknowledged after the checkpoint recovery will fall back to: these
	// must come out of the longer WAL replay.
	if _, err := d.InsertBatch([]*Object{mkObj(rng, 7002), mkObj(rng, 7003)}); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil { // final checkpoint -> 2 retained
		t.Fatal(err)
	}
	return []ID{7000, 7001, 7002, 7003}
}

// TestDurableBitFlipFallback flips a bit in the newest checkpoint: recovery
// must detect the checksum mismatch, fall back to the previous checkpoint,
// replay the longer WAL tail, and report the corruption — no acknowledged
// write lost to bit rot in the snapshot.
func TestDurableBitFlipFallback(t *testing.T) {
	dir := t.TempDir()
	ids := seedTwoCheckpoints(t, dir)
	bad := corruptNewestCheckpoint(t, dir)

	d2, err := OpenDurable(dir, nil, testOptions())
	if err != nil {
		t.Fatalf("fallback recovery failed: %v", err)
	}
	defer d2.Close()
	rec := d2.Recovery()
	if len(rec.CorruptCheckpoints) != 1 || rec.CorruptCheckpoints[0] != bad {
		t.Fatalf("corrupt checkpoints %v, want [%s]", rec.CorruptCheckpoints, bad)
	}
	if rec.UsedCheckpoint == "" || rec.UsedCheckpoint == bad {
		t.Fatalf("recovered from %q, want the older fallback", rec.UsedCheckpoint)
	}
	if rec.Replayed == 0 {
		t.Fatal("fallback recovery replayed nothing — the WAL tail beyond the older checkpoint was lost")
	}
	for _, id := range ids {
		if d2.DB().Get(id) == nil {
			t.Fatalf("acknowledged insert %d lost across the fallback", id)
		}
	}
	rebuildOracle(t, d2.Index, rand.New(rand.NewSource(32)))

	// Surviving corruption rewrites a fresh checkpoint: a third open is clean.
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	d3, err := OpenDurable(dir, nil, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer d3.Close()
	if len(d3.Recovery().CorruptCheckpoints) != 0 {
		t.Fatalf("corruption persisted across recovery: %v", d3.Recovery().CorruptCheckpoints)
	}
}

// TestDurableTornCheckpointFallback truncates the newest checkpoint mid-file
// (a torn write, not bit rot): same fallback path, distinguished by the
// envelope's length footer.
func TestDurableTornCheckpointFallback(t *testing.T) {
	dir := t.TempDir()
	ids := seedTwoCheckpoints(t, dir)
	cands := listCheckpoints(vfs.OS, dir)
	path := filepath.Join(dir, cands[0].base+".pvidx")
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()/2); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenDurable(dir, nil, testOptions())
	if err != nil {
		t.Fatalf("torn-checkpoint recovery failed: %v", err)
	}
	defer d2.Close()
	if len(d2.Recovery().CorruptCheckpoints) != 1 {
		t.Fatalf("corrupt checkpoints %v, want the torn newest", d2.Recovery().CorruptCheckpoints)
	}
	for _, id := range ids {
		if d2.DB().Get(id) == nil {
			t.Fatalf("acknowledged insert %d lost across the fallback", id)
		}
	}
}

// TestDurableAllCheckpointsCorruptFailsLoudly corrupts every retained
// checkpoint: recovery must refuse to run — silently rebuilding from the
// bootstrap database would resurrect a stale past as if it were current.
func TestDurableAllCheckpointsCorruptFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	seedTwoCheckpoints(t, dir)
	for _, c := range listCheckpoints(vfs.OS, dir) {
		path := filepath.Join(dir, c.base+".pvidx")
		buf, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		buf[len(buf)/2] ^= 0x01
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := OpenDurable(dir, nil, testOptions()); err == nil {
		t.Fatal("recovery succeeded with every checkpoint corrupt")
	}
	// A bootstrap database does not change the answer: the checkpoints prove
	// acknowledged data existed, so rebuilding over it must still refuse.
	if _, err := OpenDurable(dir, buildSmallDB(t, 40, false), testOptions()); err == nil {
		t.Fatal("recovery rebuilt from bootstrap data over corrupt checkpoints")
	}
}

// TestDurableGobEraFilesFailLoudly: a directory written before the
// fixed-width object codec holds gob in its checkpoints' database halves and
// in its WAL inserts. Neither is read as something else: checkpoints whose
// envelopes verify but whose database is gob take the all-checkpoints-failed
// path with the format named, and a gob insert in the WAL tail ends the open
// in an error naming its sequence number.
func TestDurableGobEraFilesFailLoudly(t *testing.T) {
	t.Run("checkpoints", func(t *testing.T) {
		dir := t.TempDir()
		seedTwoCheckpoints(t, dir)
		type fileFormat struct {
			Dim                int
			DomainLo, DomainHi []float64
		}
		for _, c := range listCheckpoints(vfs.OS, dir) {
			sw, err := newSealedWriter(vfs.OS, filepath.Join(dir, c.base+".db"))
			if err == nil {
				err = gob.NewEncoder(sw).Encode(fileFormat{Dim: 2, DomainLo: []float64{0, 0}, DomainHi: []float64{1000, 1000}})
			}
			if err == nil {
				err = sw.Commit()
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		_, err := OpenDurable(dir, buildSmallDB(t, 40, false), testOptions())
		if err == nil || !strings.Contains(err.Error(), "failed verification") || !strings.Contains(err.Error(), "gob") {
			t.Fatalf("open over gob-era checkpoints: got %v, want the all-checkpoints-failed error naming gob", err)
		}
	})
	t.Run("wal", func(t *testing.T) {
		dir := t.TempDir()
		d, err := OpenDurable(dir, buildSmallDB(t, 30, true), testOptions())
		if err != nil {
			t.Fatal(err)
		}
		type walInsert struct {
			ID     uint32
			Lo, Hi []float64
		}
		var frame bytes.Buffer
		if err := gob.NewEncoder(&frame).Encode(walInsert{ID: 7001, Lo: []float64{50, 50}, Hi: []float64{60, 60}}); err != nil {
			t.Fatal(err)
		}
		insertSeq, _, err := d.log.Append(
			wal.Entry{Type: wal.TypeInsert, Payload: frame.Bytes()},
			wal.Entry{Type: wal.TypeCommit, Payload: []byte{1, 0, 0, 0}})
		if err != nil {
			t.Fatal(err)
		}
		d.log.Close()
		_, err = OpenDurable(dir, nil, testOptions())
		if want := fmt.Sprintf("wal insert %d ", insertSeq); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("open over a gob-era wal insert: got %v, want an error naming %q", err, want)
		}
	})
}

// TestDurableCheckpointRetention drives several checkpoints and checks the
// retention contract: exactly CheckpointRetain checkpoints on disk, and the
// WAL still reaching back to just past the oldest retained one so fallback
// always has its replay window.
func TestDurableCheckpointRetention(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(33))
	opts := testOptions()
	opts.CheckpointRetain = 3
	d, err := OpenDurable(dir, buildSmallDB(t, 40, false), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	for round := 0; round < 6; round++ {
		if _, err := d.InsertBatch([]*Object{mkObj(rng, ID(8000+round))}); err != nil {
			t.Fatal(err)
		}
		st, err := d.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		if st.Skipped {
			t.Fatalf("round %d: checkpoint after an insert skipped", round)
		}
		cands := listCheckpoints(vfs.OS, dir)
		if want := min(round+2, 3); len(cands) != want {
			t.Fatalf("round %d: %d checkpoints on disk, want %d", round, len(cands), want)
		}
		// Every retained checkpoint must be loadable and coverable: the WAL's
		// first record is no later than the record after the oldest retained
		// snapshot.
		oldest := cands[len(cands)-1].seq
		if first := d.log.FirstSeq(); first != 0 && first > oldest+1 {
			t.Fatalf("round %d: wal starts at %d, oldest retained checkpoint at %d — fallback window lost", round, first, oldest)
		}
	}

	// Orphan .db halves and tmp files must never linger.
	dbs, _ := filepath.Glob(filepath.Join(dir, "ckpt-*.db"))
	idxs, _ := filepath.Glob(filepath.Join(dir, "ckpt-*.pvidx"))
	if len(dbs) != len(idxs) {
		t.Fatalf("unpaired checkpoint files: %d .db vs %d .pvidx", len(dbs), len(idxs))
	}
}

// poisonObject is the acknowledged-data killer of the old write path: a 2-d
// region with a 1-d instance. Nothing validated it, so the batch was logged
// and fsynced, encodeRecord then panicked on the instance — and so did every
// later replay of that log.
func poisonObject(id ID) *Object {
	return &Object{ID: id, Region: NewRect(Point{50, 50}, Point{60, 60}), Instances: []Instance{{Pos: Point{51}, Prob: 1}}}
}

// TestDurableRefusesMalformedObject: the insert is an error, nothing reaches
// the log, and the directory opens again with exactly the valid writes.
func TestDurableRefusesMalformedObject(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(41))
	d, err := OpenDurable(dir, buildSmallDB(t, 30, true), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Insert(mkObj(rng, 7000)); err != nil {
		t.Fatal(err)
	}
	seq := d.log.LastSeq()
	if err := d.Insert(poisonObject(7001)); err == nil {
		t.Fatal("Insert of a 2-d object with a 1-d instance succeeded")
	}
	if _, err := d.InsertBatch([]*Object{mkObj(rng, 7002), poisonObject(7001)}); err == nil {
		t.Fatal("InsertBatch holding a 2-d object with a 1-d instance succeeded")
	}
	if got := d.log.LastSeq(); got != seq {
		t.Fatalf("a refused insert reached the log: seq %d -> %d", seq, got)
	}
	if err := d.Insert(mkObj(rng, 7003)); err != nil {
		t.Fatalf("valid insert after the refused ones: %v", err)
	}
	// No Close: the reopen replays the log, as after a crash.
	d.log.Close()

	d2, err := OpenDurable(dir, nil, testOptions())
	if err != nil {
		t.Fatalf("reopen after refused inserts: %v", err)
	}
	defer d2.Close()
	if d2.Recovery().Replayed != 2 || d2.Len() != 32 {
		t.Fatalf("reopen replayed %d updates into %d objects, want 2 into 32", d2.Recovery().Replayed, d2.Len())
	}
	rebuildOracle(t, d2.Index, rng)
}

// TestDurablePoisonedLogFailsOpen: a directory whose log already holds such a
// batch — written, sealed and fsynced by a binary that did not validate —
// fails to open with an error naming the commit, not with the panic again.
func TestDurablePoisonedLogFailsOpen(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, buildSmallDB(t, 30, true), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	// The frame as pvindex's walcodec writes it: magic, dim, ID, instance
	// count, the fixed-width object. A 1-d instance has no fixed-width form,
	// so this poison's instance lies outside its region instead.
	o := &Object{ID: 7001, Region: NewRect(Point{50, 50}, Point{60, 60}), Instances: []Instance{{Pos: Point{51, 70}, Prob: 1}}}
	frame := binary.LittleEndian.AppendUint16([]byte("PVO1"), 2)
	frame = binary.LittleEndian.AppendUint32(frame, uint32(o.ID))
	frame = binary.LittleEndian.AppendUint32(frame, 1)
	frame, err = uncertain.AppendObject(frame, o)
	if err != nil {
		t.Fatal(err)
	}
	_, commitSeq, err := d.log.Append(
		wal.Entry{Type: wal.TypeInsert, Payload: frame},
		wal.Entry{Type: wal.TypeCommit, Payload: []byte{1, 0, 0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	d.log.Close()

	_, err = OpenDurable(dir, nil, testOptions())
	if want := fmt.Sprintf("commit %d", commitSeq); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("open over a poisoned log: got %v, want an error naming %q", err, want)
	}
}

// envelopeHolds reports whether b is a sealed checkpoint file: the magic, a
// payload, and a footer holding the payload's CRC-32 and length.
func envelopeHolds(b []byte) bool {
	n := len(b) - len(ckptMagic) - ckptFooter
	if n < 0 || !bytes.HasPrefix(b, []byte(ckptMagic)) {
		return false
	}
	payload, foot := b[len(ckptMagic):len(ckptMagic)+n], b[len(ckptMagic)+n:]
	return binary.LittleEndian.Uint32(foot) == crc32.ChecksumIEEE(payload) && binary.LittleEndian.Uint64(foot[4:]) == uint64(n)
}

// seal wraps payload in a valid checkpoint envelope.
func seal(payload []byte) []byte {
	b := append([]byte(ckptMagic), payload...)
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
	return binary.LittleEndian.AppendUint64(b, uint64(len(payload)))
}

// FuzzCheckpointEnvelope writes arbitrary bytes as a checkpoint's .db/.pvidx
// pair and reads them back through readSealed and loadCheckpoint: nothing
// panics, readSealed returns exactly the payload of a file whose magic, length
// footer and CRC all hold and an error for any other, and a pair loads only if
// both envelopes hold. Bits 0 and 1 of sealed wrap the .db and .pvidx bytes in
// a valid envelope first, so the payload decoders behind it see arbitrary
// input too. Seeds: a real pair from a small durable store, torn, bit-flipped
// and bare-magic files, and an empty payload.
func FuzzCheckpointEnvelope(f *testing.F) {
	dir := f.TempDir()
	d, err := OpenDurable(dir, buildSmallDB(f, 12, true), testOptions())
	if err != nil {
		f.Fatal(err)
	}
	if err := d.Close(); err != nil {
		f.Fatal(err)
	}
	base := listCheckpoints(vfs.OS, dir)[0].base
	var pair [2][]byte
	for i, ext := range []string{".db", ".pvidx"} {
		if pair[i], err = os.ReadFile(filepath.Join(dir, base+ext)); err != nil {
			f.Fatal(err)
		}
	}
	dbFile, ixFile := pair[0], pair[1]
	flipped := bytes.Clone(ixFile)
	flipped[len(flipped)/2] ^= 0x10
	f.Add(byte(0), dbFile, ixFile)
	f.Add(byte(0), dbFile[:len(dbFile)-1], ixFile)
	f.Add(byte(0), dbFile, flipped)
	f.Add(byte(0), []byte(ckptMagic), seal(nil))
	f.Add(byte(0), []byte{}, []byte{})
	f.Add(byte(3), dbFile[len(ckptMagic):len(dbFile)-ckptFooter], ixFile[len(ckptMagic):len(ixFile)-ckptFooter])
	f.Add(byte(3), []byte{}, []byte("PVIDX"))
	f.Fuzz(func(t *testing.T, sealed byte, dbFile, ixFile []byte) {
		if sealed&1 != 0 {
			dbFile = seal(dbFile)
		}
		if sealed&2 != 0 {
			ixFile = seal(ixFile)
		}
		dir := t.TempDir()
		const base = "ckpt-0000000000000001"
		for ext, b := range map[string][]byte{".db": dbFile, ".pvidx": ixFile} {
			path := filepath.Join(dir, base+ext)
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			payload, err := readSealed(vfs.OS, path)
			if holds := envelopeHolds(b); holds != (err == nil) {
				t.Fatalf("%s: envelope holds: %v, readSealed error: %v", ext, holds, err)
			}
			if err == nil && !bytes.Equal(payload, b[len(ckptMagic):len(b)-ckptFooter]) {
				t.Fatalf("%s: readSealed returned %d bytes that are not the payload", ext, len(payload))
			}
		}
		if _, _, err := loadCheckpoint(vfs.OS, dir, base); err == nil && !(envelopeHolds(dbFile) && envelopeHolds(ixFile)) {
			t.Fatal("loadCheckpoint loaded a pair whose envelope does not hold")
		}
	})
}
