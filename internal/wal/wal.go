// Package wal implements the write-ahead log of the durable update path: an
// append-only, CRC-checked, length-prefixed record log with segment rotation.
//
// Writers append batches of records — one commit is one buffered write plus
// one fsync, however many records it carries, which is what makes group
// commit amortize durability cost across a batch. Readers replay records in
// sequence order and stop cleanly at a torn tail: a record that was cut short
// by a crash (truncated frame, bad CRC, impossible length) terminates replay
// without error, exactly as if the crash had happened an instant earlier.
//
// On-disk layout: a directory of segment files seg-<n>.wal, each starting
// with an 8-byte magic followed by frames of
//
//	length uint32 | crc32(IEEE) uint32 | type uint8 | seq uint64 | payload
//
// where length covers type+seq+payload and the CRC covers the same bytes.
// A commit never spans segments (rotation happens between commits), so torn
// frames can only appear at the tail of the newest segment.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"pvoronoi/internal/vfs"
)

// Type tags a log record.
type Type uint8

const (
	// TypeInsert records an object insertion (payload: encoded object).
	TypeInsert Type = 1
	// TypeDelete records an object deletion (payload: encoded ID).
	TypeDelete Type = 2
	// TypeCheckpoint marks a completed checkpoint (payload: the
	// checkpoint's name, informational only). Replay skips it; it exists so
	// the log itself records the checkpoint lifecycle.
	TypeCheckpoint Type = 3
	// TypeCommit seals a group commit: it is the final record of every
	// batch Append issued by the update path. Replay buffers update records
	// and only surfaces them when their commit record arrives, so a torn
	// group commit — some of a batch's frames durable, the rest lost — is
	// discarded whole instead of resurrecting half a batch.
	TypeCommit Type = 4
)

// Record is one replayed log entry.
type Record struct {
	Seq     uint64
	Type    Type
	Payload []byte
}

// Entry is one record to append (the sequence number is assigned by the log).
type Entry struct {
	Type    Type
	Payload []byte
}

// Options configures a log.
type Options struct {
	// SegmentSize is the rotation threshold in bytes (default 8 MB). A
	// segment may exceed it by the size of the final commit; rotation
	// happens between commits.
	SegmentSize int64
	// FS is the filesystem the log runs on (default vfs.OS). Tests swap in
	// a vfs.FaultFS to exercise torn writes, failing fsyncs, and disk-full
	// conditions deterministically.
	FS vfs.FS
	// Sealed declares that every acknowledged append ends in a TypeCommit
	// or TypeCheckpoint record (the durable update path's invariant: batches
	// are sealed by a commit, checkpoint markers are their own barrier).
	// With Sealed set, Open truncates any intact frames past the last such
	// barrier in the newest segment: they are the update records of a group
	// commit whose sealing record never reached disk — a torn write that
	// happened to end on a frame boundary — and were therefore never
	// acknowledged. Leaving them in place would be worse than dropping them:
	// the next batch appends after them, and the next boot's replay would
	// buffer them into the same pending window as that batch's commit,
	// resurrecting a torn batch that a previous recovery already reported
	// dropped. The truncation is counted in OpenStats.UncommittedRecords.
	Sealed bool
}

// DefaultSegmentSize is the default rotation threshold.
const DefaultSegmentSize = 8 << 20

const (
	segMagic   = "PVWAL001"
	frameHdr   = 4 + 4 + 1 + 8 // length + crc + type + seq
	maxPayload = 1 << 30       // sanity bound; larger lengths mean corruption
)

// Stats counts the log's lifetime activity.
type Stats struct {
	Appends  int64 // records appended
	Commits  int64 // append calls (one buffered write each)
	Syncs    int64 // fsyncs issued
	Bytes    int64 // frame bytes written
	Segments int   // segment files currently on disk
}

// OpenStats describes what Open had to repair or abandon while scanning the
// existing segments — the loud part of "never silently lose an acked
// write".
type OpenStats struct {
	// TornBytes is how many trailing bytes of the newest segment were
	// discarded (a crash artifact: a commit that never finished).
	TornBytes int64
	// DroppedRecords counts intact records found BEYOND the first corrupt
	// frame of the newest segment. Replay must stop at the first bad
	// record — frame boundaries past it cannot be trusted transactionally —
	// so these records, though individually CRC-valid, are dropped. A
	// non-zero value means acknowledged writes were lost to corruption
	// (bit rot, not a crash) and the caller should surface it.
	DroppedRecords int
	// UncommittedRecords counts intact frames truncated from the newest
	// segment's tail because no TypeCommit/TypeCheckpoint barrier followed
	// them (Options.Sealed only): a group commit torn exactly on a frame
	// boundary. These records were never acknowledged — truncating them is
	// crash repair, not data loss — but the count is surfaced so recovery
	// can report it.
	UncommittedRecords int
}

// segment is the in-memory index of one on-disk segment file.
type segment struct {
	index    int // file ordinal (monotonic, never reused)
	path     string
	firstSeq uint64 // 0 when the segment holds no records yet
	lastSeq  uint64
	size     int64
}

// Log is an append-only record log. It is safe for concurrent use; appends
// are serialized internally.
type Log struct {
	mu        sync.Mutex
	dir       string
	opts      Options
	fs        vfs.FS
	segments  []segment // ordered by index; last is the active one
	f         vfs.File  // active segment, positioned at its tail
	nextSeq   uint64
	stats     Stats
	openStats OpenStats
	closed    bool
	// failed is set when a write error could not be rolled back: the file
	// may end in a partial frame, so accepting further appends would put
	// acknowledged records behind garbage that replay treats as the torn
	// tail. A failed log rejects all appends (fail-stop) until Rearm
	// rotates it onto a fresh segment.
	failed bool
	// errored is the softer sticky flag: the last append failed (even if
	// it rolled back cleanly). Cleared by a successful append or Rearm;
	// Healthy reports both, so a checkpoint can decide to rotate away from
	// a file whose fsync can no longer be trusted.
	errored bool
}

// Open opens (or creates) the log in dir. Every existing segment is scanned
// and CRC-verified; a torn frame at the tail of the newest segment is
// discarded by truncation so subsequent appends extend a clean log. A
// corrupt frame anywhere else is a hard error — that is data loss, not a
// crash artifact.
func Open(dir string, opts Options) (*Log, error) {
	if opts.SegmentSize <= 0 {
		opts.SegmentSize = DefaultSegmentSize
	}
	if opts.FS == nil {
		opts.FS = vfs.OS
	}
	if err := opts.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	l := &Log{dir: dir, opts: opts, fs: opts.FS, nextSeq: 1}

	names, err := l.fs.Glob(filepath.Join(dir, "seg-*.wal"))
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	for i, name := range names {
		seg := segment{path: name}
		if _, err := fmt.Sscanf(filepath.Base(name), "seg-%d.wal", &seg.index); err != nil {
			return nil, fmt.Errorf("wal: unrecognized segment name %q", name)
		}
		last := i == len(names)-1
		drop, err := l.scanSegment(&seg, last)
		if err != nil {
			return nil, err
		}
		if drop {
			if err := l.fs.Remove(seg.path); err != nil {
				return nil, fmt.Errorf("wal: removing torn segment %s: %w", seg.path, err)
			}
			if err := l.fs.SyncDir(dir); err != nil {
				return nil, err
			}
			continue
		}
		if seg.lastSeq > 0 {
			l.nextSeq = seg.lastSeq + 1
		}
		l.segments = append(l.segments, seg)
	}
	if len(l.segments) == 0 {
		if err := l.addSegment(0); err != nil {
			return nil, err
		}
	} else {
		tail := &l.segments[len(l.segments)-1]
		f, err := l.fs.OpenFile(tail.path, os.O_WRONLY, 0o644)
		if err != nil {
			return nil, err
		}
		if _, err := f.Seek(tail.size, io.SeekStart); err != nil {
			f.Close()
			return nil, err
		}
		l.f = f
	}
	return l, nil
}

// scanSegment validates seg's frames, filling its seq range and valid size.
// For the last segment, everything from the first bad frame on is truncated
// away: a frame cut short by a crash is the expected torn tail, while a
// CRC-corrupt frame with intact frames behind it is bit rot — replay must
// still stop at the first bad record (frame boundaries past it cannot be
// trusted transactionally), but the intact records beyond it are counted
// into OpenStats.DroppedRecords so the loss is loud, never silent. Earlier
// segments must be fully intact. Append numbers frames upward, so a frame
// whose seq does not rise (a stray copy, CRC-valid or not) is bad too.
func (l *Log) scanSegment(seg *segment, last bool) (drop bool, err error) {
	buf, err := l.fs.ReadFile(seg.path)
	if err != nil {
		return false, err
	}
	if last && len(buf) < len(segMagic) {
		// A crash during segment creation leaves a file shorter than the
		// magic: no frame could have been acked into it, so discard it.
		return true, nil
	}
	if len(buf) < len(segMagic) || string(buf[:len(segMagic)]) != segMagic {
		return false, fmt.Errorf("wal: %s: bad segment magic", seg.path)
	}
	off := int64(len(segMagic))
	data := buf[off:]
	// Sealed logs end every acknowledged append with a commit/checkpoint
	// barrier; track where the last sealed prefix ends so trailing intact
	// frames with no barrier behind them can be truncated as a torn group
	// commit that happened to end on a frame boundary.
	sealedOff := off
	sealedSeq := uint64(0)
	unsealed := 0
	for next := l.nextSeq; len(data) > 0; next = seg.lastSeq + 1 {
		rec, n, ok := parseFrame(data)
		if !ok || rec.Seq < next {
			if !last {
				return false, fmt.Errorf("wal: %s: corrupt frame at offset %d in non-final segment", seg.path, off)
			}
			// Count any intact records stranded beyond the bad frame, then
			// discard everything from it on.
			l.openStats.DroppedRecords += countIntactBeyond(data)
			l.openStats.TornBytes += int64(len(data))
			if err := l.fs.Truncate(seg.path, off); err != nil {
				return false, fmt.Errorf("wal: truncating torn tail of %s: %w", seg.path, err)
			}
			break
		}
		if seg.firstSeq == 0 {
			seg.firstSeq = rec.Seq
		}
		seg.lastSeq = rec.Seq
		off += int64(n)
		data = data[n:]
		if rec.Type == TypeCommit || rec.Type == TypeCheckpoint {
			sealedOff, sealedSeq, unsealed = off, rec.Seq, 0
		} else {
			unsealed++
		}
	}
	seg.size = off
	if l.opts.Sealed && last && unsealed > 0 {
		l.openStats.UncommittedRecords += unsealed
		l.openStats.TornBytes += off - sealedOff
		if err := l.fs.Truncate(seg.path, sealedOff); err != nil {
			return false, fmt.Errorf("wal: truncating uncommitted tail of %s: %w", seg.path, err)
		}
		seg.size = sealedOff
		seg.lastSeq = sealedSeq
		if sealedSeq == 0 {
			seg.firstSeq = 0
		}
	}
	return false, nil
}

// countIntactBeyond walks frames starting at a corrupt one, skipping over
// it by its length header when that is still plausible, and counts the
// CRC-valid records found after it. Best-effort: a mangled length field
// ends the walk (the tail is then indistinguishable from a torn write).
func countIntactBeyond(data []byte) int {
	// Step over the corrupt frame itself, if its header still frames it.
	n, structOK := frameSpan(data)
	if !structOK {
		return 0
	}
	dropped := 0
	data = data[n:]
	for len(data) > 0 {
		n, structOK := frameSpan(data)
		if !structOK {
			break
		}
		if _, _, ok := parseFrame(data); ok {
			dropped++
		}
		data = data[n:]
	}
	return dropped
}

// frameSpan reports the full size of the frame at the head of data going by
// its length header alone, without checking the CRC.
func frameSpan(data []byte) (int, bool) {
	if len(data) < frameHdr {
		return 0, false
	}
	length := binary.LittleEndian.Uint32(data[0:4])
	if length < 1+8 || length > maxPayload {
		return 0, false
	}
	total := 8 + int(length)
	if len(data) < total {
		return 0, false
	}
	return total, true
}

// parseFrame decodes one frame from data, reporting its full size and
// whether it is intact.
func parseFrame(data []byte) (Record, int, bool) {
	if len(data) < frameHdr {
		return Record{}, 0, false
	}
	length := binary.LittleEndian.Uint32(data[0:4])
	if length < 1+8 || length > maxPayload {
		return Record{}, 0, false
	}
	total := 8 + int(length)
	if len(data) < total {
		return Record{}, 0, false
	}
	body := data[8:total]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(data[4:8]) {
		return Record{}, 0, false
	}
	rec := Record{
		Type:    Type(body[0]),
		Seq:     binary.LittleEndian.Uint64(body[1:9]),
		Payload: body[9:],
	}
	return rec, total, true
}

// addSegment creates and activates a fresh segment with the given index.
// The directory is fsynced too: a segment whose data is durable but whose
// directory entry is not would silently vanish on power loss, taking its
// acknowledged commits with it.
func (l *Log) addSegment(index int) error {
	path := filepath.Join(l.dir, fmt.Sprintf("seg-%08d.wal", index))
	f, err := l.fs.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	// On any failure past the create, remove the partial file so a retry
	// (e.g. Rearm after the disk frees up) can recreate it with O_EXCL.
	fail := func(err error) error {
		f.Close()
		l.fs.Remove(path)
		return err
	}
	if _, err := f.Write([]byte(segMagic)); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := l.fs.SyncDir(l.dir); err != nil {
		return fail(err)
	}
	if l.f != nil {
		l.f.Close()
	}
	l.f = f
	l.segments = append(l.segments, segment{index: index, path: path, size: int64(len(segMagic))})
	return nil
}

// Append commits the entries as one group: all frames are written with a
// single buffered write and made durable with a single fsync.
// It returns the sequence numbers assigned to the first and last entry.
// Appending no entries is a no-op.
func (l *Log) Append(entries ...Entry) (first, last uint64, err error) {
	if len(entries) == 0 {
		return 0, 0, nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, 0, fmt.Errorf("wal: append on closed log")
	}
	if l.failed {
		return 0, 0, fmt.Errorf("wal: log is failed after an unrecoverable write error")
	}

	// Rotation happens *before* a commit, never after one: once a batch is
	// durably written and fsynced it must be reported as committed, so a
	// failure to open the next segment may only fail the commit it was
	// about to receive (nothing is written yet at this point).
	if tail := &l.segments[len(l.segments)-1]; tail.size >= l.opts.SegmentSize {
		if err := l.addSegment(tail.index + 1); err != nil {
			return 0, 0, fmt.Errorf("wal: rotating segment: %w", err)
		}
	}

	first = l.nextSeq
	var buf []byte
	for _, e := range entries {
		body := make([]byte, 1+8+len(e.Payload))
		body[0] = byte(e.Type)
		binary.LittleEndian.PutUint64(body[1:9], l.nextSeq)
		copy(body[9:], e.Payload)
		var hdr [8]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(body)))
		binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(body))
		buf = append(buf, hdr[:]...)
		buf = append(buf, body...)
		l.nextSeq++
	}
	last = l.nextSeq - 1

	if _, err := l.f.Write(buf); err != nil {
		l.rollback(first)
		return 0, 0, fmt.Errorf("wal: append: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		l.rollback(first)
		return 0, 0, fmt.Errorf("wal: fsync: %w", err)
	}
	l.stats.Syncs++
	l.errored = false

	tail := &l.segments[len(l.segments)-1]
	if tail.firstSeq == 0 {
		tail.firstSeq = first
	}
	tail.lastSeq = last
	tail.size += int64(len(buf))
	l.stats.Appends += int64(len(entries))
	l.stats.Commits++
	l.stats.Bytes += int64(len(buf))
	return first, last, nil
}

// rollback restores the active segment to its last committed size after a
// failed write, so the file cannot end in a partial frame that later
// appends would bury (replay would stop at the garbage and silently drop
// them). If the truncate itself fails, the log fail-stops: every further
// append is rejected until Rearm. Callers hold l.mu and roll nextSeq back
// to first.
func (l *Log) rollback(first uint64) {
	l.nextSeq = first
	l.errored = true
	tail := &l.segments[len(l.segments)-1]
	if err := l.fs.Truncate(tail.path, tail.size); err != nil {
		l.failed = true
		return
	}
	if _, err := l.f.Seek(tail.size, io.SeekStart); err != nil {
		l.failed = true
	}
}

// Healthy reports whether the log can be expected to accept the next
// append: false after a fail-stop (failed) and after any append error whose
// rollback succeeded but whose file (e.g. a poisoned post-fsync-failure
// handle) should no longer be trusted.
func (l *Log) Healthy() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return !l.failed && !l.errored && !l.closed
}

// Rearm recovers a failed or errored log by abandoning its active segment:
// any unrollbacked garbage tail is truncated away (committed records are
// preserved — they end exactly at the segment's recorded size), a fresh
// segment is created and becomes the append target, and the failure flags
// clear. It is the re-entry point after the underlying fault is gone — disk
// space freed, a poisoned file left behind ("fsyncgate" recovery rotates
// files, it never retries an fsync that already failed). If the filesystem
// is still faulty, Rearm fails and the log stays fail-stopped.
func (l *Log) Rearm() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("wal: rearm on closed log")
	}
	if !l.failed && !l.errored {
		return nil
	}
	tail := &l.segments[len(l.segments)-1]
	if err := l.fs.Truncate(tail.path, tail.size); err != nil {
		return fmt.Errorf("wal: rearm: truncating garbage tail of %s: %w", tail.path, err)
	}
	if err := l.addSegment(tail.index + 1); err != nil {
		return fmt.Errorf("wal: rearm: %w", err)
	}
	l.failed = false
	l.errored = false
	return nil
}

// Replay calls fn for every intact record with Seq >= from, in sequence
// order. A torn frame at the tail of the newest segment ends replay cleanly;
// a corrupt frame anywhere else is an error. The payload passed to fn is
// only valid during the call.
func (l *Log) Replay(from uint64, fn func(Record) error) error {
	l.mu.Lock()
	segs := make([]segment, len(l.segments))
	copy(segs, l.segments)
	l.mu.Unlock()

	for i, seg := range segs {
		if seg.lastSeq != 0 && seg.lastSeq < from {
			continue
		}
		buf, err := l.fs.ReadFile(seg.path)
		if err != nil {
			return err
		}
		if len(buf) < len(segMagic) || string(buf[:len(segMagic)]) != segMagic {
			return fmt.Errorf("wal: %s: bad segment magic", seg.path)
		}
		data := buf[len(segMagic):]
		off := int64(len(segMagic))
		for len(data) > 0 {
			rec, n, ok := parseFrame(data)
			if !ok {
				if i != len(segs)-1 {
					return fmt.Errorf("wal: %s: corrupt frame at offset %d in non-final segment", seg.path, off)
				}
				return nil // torn tail: clean stop
			}
			if rec.Seq >= from {
				if err := fn(rec); err != nil {
					return err
				}
			}
			off += int64(n)
			data = data[n:]
		}
	}
	return nil
}

// LastSeq returns the sequence number of the most recently appended record
// (0 for an empty log).
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq - 1
}

// FirstSeq returns the lowest sequence number still present in the log
// (0 when the log holds no records). A checkpoint at seq S can only serve
// as a recovery base when FirstSeq() <= S+1 or the log is empty — anything
// else means the records between S and the log's head were truncated away.
func (l *Log) FirstSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, seg := range l.segments {
		if seg.firstSeq != 0 {
			return seg.firstSeq
		}
	}
	return 0
}

// OpenStats reports what Open repaired or dropped while scanning.
func (l *Log) OpenStats() OpenStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.openStats
}

// TruncateBefore removes every sealed segment whose records all have
// sequence numbers below seq — the space-reclaim step after a checkpoint at
// seq-1. The active segment is never removed. The directory is fsynced
// after any removal: an unsynced removal can be resurrected by a crash, and
// worse, journal reordering could persist the removal of a segment while
// losing a rename that was supposed to supersede it.
func (l *Log) TruncateBefore(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	removed := false
	kept := l.segments[:0]
	for i, seg := range l.segments {
		active := i == len(l.segments)-1
		if !active && seg.lastSeq != 0 && seg.lastSeq < seq && seg.firstSeq != 0 {
			if err := l.fs.Remove(seg.path); err != nil {
				return err
			}
			removed = true
			continue
		}
		kept = append(kept, seg)
	}
	l.segments = kept
	if removed {
		if err := l.fs.SyncDir(l.dir); err != nil {
			return err
		}
	}
	return nil
}

// Stats returns a snapshot of the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.stats
	st.Segments = len(l.segments)
	return st
}

// Dir returns the log's directory.
func (l *Log) Dir() string { return l.dir }

// Close fsyncs and closes the active segment. The log is unusable afterward.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if err := l.f.Sync(); err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}
