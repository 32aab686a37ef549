package pvoronoi

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"pvoronoi/internal/dataset"
	"pvoronoi/internal/uncertain"
	"pvoronoi/internal/vfs"
	"pvoronoi/internal/wal"
)

// Durable is an Index whose updates survive process crashes. Every write
// batch is appended to a write-ahead log and fsynced before it applies;
// Checkpoint persists a consistent (database, index) snapshot pair and
// trims the log; OpenDurable restores the newest readable checkpoint and
// replays the log's tail. Queries and updates go through the embedded Index
// exactly as in the in-memory mode.
//
// Directory layout:
//
//	dir/ckpt-<seq>.db    database snapshot at WAL sequence <seq>
//	dir/ckpt-<seq>.pvidx index snapshot at WAL sequence <seq>
//	dir/wal/seg-*.wal    write-ahead-log segments
//
// Checkpoint payloads are wrapped in a checksummed envelope (magic + CRC32 +
// length footer), and the newest Options.CheckpointRetain checkpoints are
// kept on disk: a bit-flipped or torn newest checkpoint is detected on load
// and recovery falls back to the previous one plus a longer WAL replay —
// the WAL is only trimmed below the oldest retained checkpoint, so the
// fallback's replay window always exists.
type Durable struct {
	*Index
	dir    string
	log    *wal.Log
	fs     vfs.FS
	retain int

	ckptMu sync.Mutex
	// lastCkptSeq/lastCkptEpoch identify the state the newest checkpoint
	// covers: its WAL sequence and the index's MVCC write epoch. The epoch
	// replaces the page store's mutation counter as the "anything changed?"
	// signal — the store now also mutates on version reclamation, which
	// changes no logical state.
	lastCkptSeq   uint64
	lastCkptEpoch uint64
	hasCkpt       bool
	closed        bool

	recovery RecoveryStats
}

// RecoveryStats describes what OpenDurable had to do to restore state.
type RecoveryStats struct {
	// Rebuilt is true when no checkpoint existed and the index was built
	// from the bootstrap database.
	Rebuilt bool
	// SnapshotSeq is the WAL sequence the loaded checkpoint covered (0 when
	// rebuilt).
	SnapshotSeq uint64
	// Replayed counts the WAL updates applied on top of the snapshot.
	Replayed int
	// UsedCheckpoint is the base name of the checkpoint recovery loaded
	// ("" when rebuilt from the bootstrap database).
	UsedCheckpoint string
	// CorruptCheckpoints lists checkpoint base names that failed envelope
	// or checksum verification (bit rot, torn writes) and were skipped in
	// favor of an older fallback. Non-empty means the store survived
	// checkpoint corruption — worth surfacing to an operator.
	CorruptCheckpoints []string
	// DroppedWALRecords counts intact WAL records stranded beyond a corrupt
	// mid-segment frame and therefore dropped (see wal.OpenStats). Non-zero
	// means acknowledged writes were lost to log corruption — loud, never
	// silent.
	DroppedWALRecords int
	// TornWALBytes is how many trailing bytes of the newest WAL segment
	// were discarded as a crash artifact.
	TornWALBytes int64
	// UncommittedWALRecords counts intact update frames truncated from the
	// log's tail because their batch's sealing commit record never reached
	// disk (a group commit torn exactly on a frame boundary). They were
	// never acknowledged, so this is crash repair, not data loss.
	UncommittedWALRecords int
}

// CheckpointStats describes one Checkpoint call.
type CheckpointStats struct {
	// Seq is the WAL sequence the checkpoint covers.
	Seq uint64
	// Skipped is true when the state was unchanged since the last
	// checkpoint (per the page store's mutation epoch) and nothing was
	// written.
	Skipped bool
	// Duration is the wall time spent writing the snapshot pair.
	Duration time.Duration
}

// DurableStats reports the durable layer's counters for monitoring.
type DurableStats struct {
	WALSeq        uint64 // last applied WAL sequence
	WALAppends    int64  // records logged
	WALCommits    int64  // group commits (one buffered write each)
	WALSyncs      int64  // fsyncs issued
	WALBytes      int64  // log bytes written
	WALSegments   int    // segment files on disk
	WALHealthy    bool   // false after an unrecovered WAL write/fsync failure
	CheckpointSeq uint64 // WAL sequence of the newest checkpoint
	StoreEpoch    int64  // page store mutation epoch
	IndexEpoch    uint64 // MVCC write epoch the skip check keys on
}

const (
	// ckptMagic heads every checkpoint file; ckptFooter trails it with
	// crc32(payload) LE32 followed by len(payload) LE64. The length makes a
	// truncated file distinguishable from a checksum mismatch.
	ckptMagic  = "PVCKPT1\n"
	ckptFooter = 4 + 8

	defaultCheckpointRetain = 2
)

// OpenDurable opens (or initializes) a durable index in dir.
//
// With an existing checkpoint, the bootstrap database db is ignored: the
// newest checkpoint whose envelope verifies is loaded and the WAL tail
// beyond its snapshot is replayed; a corrupt newest checkpoint falls back to
// the previous retained one (recorded in RecoveryStats.CorruptCheckpoints).
// If checkpoints exist but none verifies, OpenDurable fails loudly rather
// than silently rebuilding over acknowledged data. Without any checkpoint
// (first boot, or a crash before the first checkpoint completed), the index
// is built from db with opts and any WAL records from a previous
// uncheckpointed run are replayed on top — so acknowledged updates survive
// even that window, provided the caller supplies the same bootstrap database
// each time (same dataset file or generator seed).
//
// Open finishes by writing a fresh checkpoint whenever recovery changed
// anything, so the next boot replays as little as possible.
func OpenDurable(dir string, db *DB, opts Options) (*Durable, error) {
	fs := opts.FS
	if fs == nil {
		fs = vfs.OS
	}
	retain := opts.CheckpointRetain
	if retain <= 0 {
		retain = defaultCheckpointRetain
	}
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// Sealed: every append this layer issues ends in a commit or checkpoint
	// barrier, so Open may truncate barrier-less tail frames (a group commit
	// torn exactly on a frame boundary) instead of leaving them to be
	// adopted by a later batch's commit on the next replay.
	log, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{FS: fs, Sealed: true})
	if err != nil {
		return nil, err
	}
	d := &Durable{dir: dir, log: log, fs: fs, retain: retain}
	walScan := log.OpenStats()
	d.recovery.DroppedWALRecords = walScan.DroppedRecords
	d.recovery.TornWALBytes = walScan.TornBytes
	d.recovery.UncommittedWALRecords = walScan.UncommittedRecords

	// Candidate checkpoints, newest first: the envelope checksum decides
	// what is loadable.
	cands := listCheckpoints(fs, dir)
	var ix *Index
	var newestErr error // why the newest checkpoint was rejected
	for _, c := range cands {
		loaded, err := loadCheckpoint(fs, dir, c.base)
		if err != nil {
			if newestErr == nil {
				newestErr = err
			}
			d.recovery.CorruptCheckpoints = append(d.recovery.CorruptCheckpoints, c.base)
			continue
		}
		snapSeq := loaded.inner.WALSeq()
		// Gap check: replaying from this snapshot needs every WAL record
		// beyond snapSeq. If the log's head was truncated past that point
		// the store cannot reach a consistent state — fail loudly instead
		// of resurrecting a stale prefix as if it were current.
		if first := log.FirstSeq(); first != 0 && first > snapSeq+1 {
			log.Close()
			return nil, fmt.Errorf("pvoronoi: checkpoint %s is at wal seq %d but the log starts at %d: replay window lost", c.base, snapSeq, first)
		}
		ix = loaded
		d.recovery.SnapshotSeq = snapSeq
		d.recovery.UsedCheckpoint = c.base
		break
	}
	if ix == nil {
		if len(cands) > 0 {
			log.Close()
			return nil, fmt.Errorf("pvoronoi: all %d checkpoints in %s failed verification (%s): refusing to rebuild over acknowledged data; newest: %w",
				len(cands), dir, strings.Join(d.recovery.CorruptCheckpoints, ", "), newestErr)
		}
		if db == nil {
			log.Close()
			return nil, fmt.Errorf("pvoronoi: OpenDurable on an empty %s requires a bootstrap database", dir)
		}
		ix, err = BuildParallel(db, opts, 0)
		if err != nil {
			log.Close()
			return nil, err
		}
		d.recovery.Rebuilt = true
	}
	ix.inner.AttachWAL(log)
	replayed, err := ix.inner.Recover()
	if err != nil {
		log.Close()
		return nil, fmt.Errorf("pvoronoi: wal replay: %w", err)
	}
	d.recovery.Replayed = replayed
	d.Index = ix

	if d.recovery.Rebuilt || replayed > 0 || len(d.recovery.CorruptCheckpoints) > 0 {
		if _, err := d.Checkpoint(); err != nil {
			log.Close()
			return nil, fmt.Errorf("pvoronoi: initial checkpoint: %w", err)
		}
	} else {
		d.lastCkptSeq = ix.inner.WALSeq()
		d.lastCkptEpoch = ix.inner.Epoch()
		d.hasCkpt = true
	}
	return d, nil
}

// ckptRef names one on-disk checkpoint pair.
type ckptRef struct {
	seq  uint64
	base string
}

// listCheckpoints returns the checkpoint pairs present in dir, newest first.
func listCheckpoints(fs vfs.FS, dir string) []ckptRef {
	matches, _ := fs.Glob(filepath.Join(dir, "ckpt-*.pvidx"))
	var out []ckptRef
	for _, m := range matches {
		name := filepath.Base(m)
		var seq uint64
		if _, err := fmt.Sscanf(name, "ckpt-%d.pvidx", &seq); err != nil {
			continue // ckpt-tmp.* and strays
		}
		out = append(out, ckptRef{seq: seq, base: strings.TrimSuffix(name, ".pvidx")})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq > out[j].seq })
	return out
}

// loadCheckpoint reads and verifies one checkpoint pair, returning the
// restored index. Any envelope, checksum, or decode failure is reported —
// the caller falls back to an older checkpoint.
func loadCheckpoint(fs vfs.FS, dir, base string) (*Index, error) {
	dbPayload, err := readSealed(fs, filepath.Join(dir, base+".db"))
	if err != nil {
		return nil, err
	}
	snapDB, err := dataset.LoadFrom(bytes.NewReader(dbPayload))
	if err != nil {
		return nil, fmt.Errorf("pvoronoi: decoding checkpoint database %s: %w", base, err)
	}
	ixPayload, err := readSealed(fs, filepath.Join(dir, base+".pvidx"))
	if err != nil {
		return nil, err
	}
	ix, err := LoadIndex(bytes.NewReader(ixPayload), snapDB)
	if err != nil {
		return nil, fmt.Errorf("pvoronoi: decoding checkpoint index %s: %w", base, err)
	}
	return ix, nil
}

// Recovery reports what OpenDurable did.
func (d *Durable) Recovery() RecoveryStats { return d.recovery }

// HasCheckpoint reports whether dir holds a durable checkpoint — i.e.
// whether OpenDurable would recover from it rather than need a bootstrap
// database. Callers can use it to skip loading bootstrap data on restarts.
// It inspects the real OS filesystem; a store running on a custom
// Options.FS must use HasCheckpointFS with that filesystem instead.
func HasCheckpoint(dir string) bool {
	return HasCheckpointFS(vfs.OS, dir)
}

// HasCheckpointFS is HasCheckpoint on an explicit filesystem — pass the
// same Options.FS the store runs on (fault-injection harnesses, custom
// VFS layers).
func HasCheckpointFS(fs vfs.FS, dir string) bool {
	return len(listCheckpoints(fs, dir)) > 0
}

// WALHealthy reports whether the write-ahead log can be expected to accept
// the next append. False after a write or fsync failure (disk full, I/O
// error, fsyncgate-poisoned file) until a successful Checkpoint re-arms the
// log — the serving layer uses this to enter and leave degraded read-only
// mode.
func (d *Durable) WALHealthy() bool { return d.log.Healthy() }

// Checkpoint persists a consistent snapshot of the database and index,
// prunes checkpoints beyond the retention count, and trims WAL segments
// below the oldest retained checkpoint. If nothing changed since the last
// checkpoint (same index write epoch and WAL sequence) it is a no-op. Safe to
// call while queries and updates are running — the snapshot pair reads one
// pinned MVCC version and serializes entirely off-lock, so a checkpoint
// concurrent with ApplyBatch blocks neither: writers keep publishing while
// the pinned version streams to disk.
//
// Checkpoint is also the re-arm point after a storage fault: a WAL that
// fail-stopped (disk full, fsync error) is rotated onto a fresh segment
// first, so a successful Checkpoint call certifies the whole write path is
// healthy again.
func (d *Durable) Checkpoint() (CheckpointStats, error) {
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	if d.closed {
		return CheckpointStats{}, fmt.Errorf("pvoronoi: checkpoint on closed durable index")
	}
	if !d.log.Healthy() {
		// Never retry a failed fsync on the same file — rotate to a fresh
		// segment or stay fail-stopped.
		if err := d.log.Rearm(); err != nil {
			return CheckpointStats{}, fmt.Errorf("pvoronoi: wal still unhealthy: %w", err)
		}
	}
	start := time.Now()
	if d.hasCkpt &&
		d.Index.inner.Epoch() == d.lastCkptEpoch &&
		d.Index.inner.WALSeq() == d.lastCkptSeq {
		return CheckpointStats{Seq: d.lastCkptSeq, Skipped: true}, nil
	}

	tmpDB := filepath.Join(d.dir, "ckpt-tmp.db")
	tmpIx := filepath.Join(d.dir, "ckpt-tmp.pvidx")
	iw, err := newSealedWriter(d.fs, tmpIx)
	if err != nil {
		return CheckpointStats{}, err
	}
	// Read the epoch before pinning: a write that lands in between makes
	// the pinned version newer than the recorded epoch, so the next
	// checkpoint re-runs rather than wrongly skipping — always safe.
	epoch := d.Index.inner.Epoch()
	bw := bufio.NewWriter(iw)
	seq, err := d.Index.inner.SnapshotWith(bw, func(db *uncertain.DB) error {
		dw, err := newSealedWriter(d.fs, tmpDB)
		if err != nil {
			return err
		}
		if err := dataset.SaveTo(db, dw); err != nil {
			dw.Abort()
			return err
		}
		return dw.Commit()
	})
	if err == nil {
		err = bw.Flush()
	}
	if err != nil {
		iw.Abort()
		d.fs.Remove(tmpDB)
		return CheckpointStats{}, fmt.Errorf("pvoronoi: writing checkpoint: %w", err)
	}
	if err := iw.Commit(); err != nil {
		iw.Abort()
		d.fs.Remove(tmpDB)
		return CheckpointStats{}, fmt.Errorf("pvoronoi: sealing checkpoint: %w", err)
	}

	base := fmt.Sprintf("ckpt-%016d", seq)
	if err := d.fs.Rename(tmpDB, filepath.Join(d.dir, base+".db")); err != nil {
		return CheckpointStats{}, err
	}
	if err := d.fs.Rename(tmpIx, filepath.Join(d.dir, base+".pvidx")); err != nil {
		return CheckpointStats{}, err
	}
	// The renames must be durable before the log records the checkpoint
	// and the pruning below removes older pairs and log segments.
	if err := d.fs.SyncDir(d.dir); err != nil {
		return CheckpointStats{}, err
	}

	// The checkpoint is durable; record it in the log, prune checkpoints
	// beyond the retention count, and reclaim the log below the oldest
	// retained one — whose replay window must stay intact for fallback.
	if _, _, err := d.log.Append(wal.Entry{Type: wal.TypeCheckpoint, Payload: []byte(base)}); err != nil {
		return CheckpointStats{}, err
	}
	oldestRetained := d.pruneCheckpoints(seq)
	if err := d.log.TruncateBefore(oldestRetained + 1); err != nil {
		return CheckpointStats{}, err
	}

	d.lastCkptSeq = seq
	d.lastCkptEpoch = epoch
	d.hasCkpt = true
	return CheckpointStats{Seq: seq, Duration: time.Since(start)}, nil
}

// pruneCheckpoints keeps the newest retain checkpoints (always including
// newestSeq's) and removes the rest, returning the oldest retained
// sequence. Removal is best-effort — a checkpoint that cannot be removed is
// only wasted space — but any removal is followed by a directory fsync so a
// crash cannot resurrect a pruned checkpoint that the WAL no longer covers.
func (d *Durable) pruneCheckpoints(newestSeq uint64) (oldestRetained uint64) {
	cands := listCheckpoints(d.fs, d.dir) // newest first
	oldestRetained = newestSeq
	removed := false
	for i, c := range cands {
		if i < d.retain {
			if c.seq < oldestRetained {
				oldestRetained = c.seq
			}
			continue
		}
		d.fs.Remove(filepath.Join(d.dir, c.base+".db"))
		d.fs.Remove(filepath.Join(d.dir, c.base+".pvidx"))
		removed = true
	}
	if removed {
		d.fs.SyncDir(d.dir)
	}
	return oldestRetained
}

// Stats returns the durable layer's counters.
func (d *Durable) Stats() DurableStats {
	ws := d.log.Stats()
	d.ckptMu.Lock()
	ckptSeq := d.lastCkptSeq
	d.ckptMu.Unlock()
	return DurableStats{
		WALSeq:        d.Index.inner.WALSeq(),
		WALAppends:    ws.Appends,
		WALCommits:    ws.Commits,
		WALSyncs:      ws.Syncs,
		WALBytes:      ws.Bytes,
		WALSegments:   ws.Segments,
		WALHealthy:    d.log.Healthy(),
		CheckpointSeq: ckptSeq,
		StoreEpoch:    d.Index.inner.Store().Epoch(),
		IndexEpoch:    d.Index.inner.Epoch(),
	}
}

// Close writes a final checkpoint and closes the log. The index remains
// usable for queries but further updates and checkpoints will fail.
func (d *Durable) Close() error {
	d.ckptMu.Lock()
	if d.closed {
		d.ckptMu.Unlock()
		return nil
	}
	d.ckptMu.Unlock()

	_, ckptErr := d.Checkpoint()

	d.ckptMu.Lock()
	d.closed = true
	d.ckptMu.Unlock()

	logErr := d.log.Close()
	if ckptErr != nil {
		return ckptErr
	}
	return logErr
}

// sealedWriter streams a checkpoint payload into its checksummed envelope:
// magic, payload, then (on Commit) a crc32+length footer, flush, and fsync.
type sealedWriter struct {
	fs   vfs.FS
	path string
	f    vfs.File
	crc  hash.Hash32
	n    uint64
	err  error
}

func newSealedWriter(fs vfs.FS, path string) (*sealedWriter, error) {
	f, err := fs.Create(path)
	if err != nil {
		return nil, err
	}
	sw := &sealedWriter{fs: fs, path: path, f: f, crc: crc32.NewIEEE()}
	if _, err := f.Write([]byte(ckptMagic)); err != nil {
		sw.Abort()
		return nil, err
	}
	return sw, nil
}

func (sw *sealedWriter) Write(p []byte) (int, error) {
	if sw.err != nil {
		return 0, sw.err
	}
	n, err := sw.f.Write(p)
	sw.crc.Write(p[:n])
	sw.n += uint64(n)
	sw.err = err
	return n, err
}

// Commit writes the footer and makes the file durable. The writer is spent
// afterward.
func (sw *sealedWriter) Commit() error {
	if sw.err != nil {
		return sw.err
	}
	var foot [ckptFooter]byte
	binary.LittleEndian.PutUint32(foot[0:4], sw.crc.Sum32())
	binary.LittleEndian.PutUint64(foot[4:12], sw.n)
	_, err := sw.f.Write(foot[:])
	if err == nil {
		err = sw.f.Sync()
	}
	if cerr := sw.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Abort closes and removes the partial file.
func (sw *sealedWriter) Abort() {
	sw.f.Close()
	sw.fs.Remove(sw.path)
}

// readSealed reads a checkpoint file and verifies its envelope, returning
// the payload. A bad magic, short file, length mismatch (torn write), or
// checksum mismatch (bit rot) is an error — the caller treats the file as
// corrupt and falls back.
func readSealed(fs vfs.FS, path string) ([]byte, error) {
	buf, err := fs.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(buf) < len(ckptMagic)+ckptFooter || string(buf[:len(ckptMagic)]) != ckptMagic {
		return nil, fmt.Errorf("pvoronoi: %s: bad checkpoint envelope", path)
	}
	payload := buf[len(ckptMagic) : len(buf)-ckptFooter]
	foot := buf[len(buf)-ckptFooter:]
	if got := binary.LittleEndian.Uint64(foot[4:12]); got != uint64(len(payload)) {
		return nil, fmt.Errorf("pvoronoi: %s: checkpoint torn (%d payload bytes, footer says %d)", path, len(payload), got)
	}
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(foot[0:4]) {
		return nil, fmt.Errorf("pvoronoi: %s: checkpoint checksum mismatch", path)
	}
	return payload, nil
}
