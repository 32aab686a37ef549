package pvindex

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"pvoronoi/internal/core"
	"pvoronoi/internal/geom"
	"pvoronoi/internal/rtree"
	"pvoronoi/internal/uncertain"
	"pvoronoi/internal/wal"
)

// Op selects the kind of one batched update.
type Op uint8

const (
	// OpInsert adds Update.Object to the database and index.
	OpInsert Op = iota + 1
	// OpDelete removes the object with Update.ID.
	OpDelete
)

// Update is one operation of a write batch.
type Update struct {
	Op     Op
	Object *uncertain.Object // OpInsert
	ID     uncertain.ID      // OpDelete
}

// ErrWAL marks write-ahead-log failures surfaced by ApplyBatch, so callers
// can tell a server-side durability fault (disk full, I/O error) apart from
// an invalid request.
var ErrWAL = errors.New("pvindex: wal failure")

// ApplyBatch applies a batch of updates as one group commit onto a fresh
// MVCC version:
//
//  1. The whole batch is validated against the current published version —
//     queries keep flowing, untouched.
//  2. If a WAL is attached (AttachWAL), the batch is appended
//     to the log and made durable with a single fsync before any state
//     changes — log-then-apply, so recovery can replay it.
//  3. All updates apply to a copy-on-write working version (shared pages
//     and nodes are shadow-copied, never rewritten) through applyBatch — the
//     code Recover replays the log with — which then publishes with a single
//     atomic pointer swap. Readers never observe a partial batch and never
//     wait: the previous version keeps serving until the swap, then drains
//     and is reclaimed.
//
// Validation is all-or-nothing: a malformed object, a duplicate insert ID or
// an unknown delete ID anywhere in the batch (accounting for earlier ops in
// the same batch) fails the whole batch before anything is logged or
// applied. Concurrent ApplyBatch calls serialize; queries never block on any
// phase. An inserted *Object is adopted into the database, and Step 2 reads
// its instances in place: the caller must not mutate it afterwards.
//
// Stats are returned per op, positionally. A mid-apply error (e.g. a full
// page store) discards the working version — the published state is
// untouched, so reads keep working. With a WAL attached the failed batch
// was already logged, so further writes and persistence snapshots are
// refused (the memory/log divergence must not compound); recovery replays
// the log from the last checkpoint.
func (ix *Index) ApplyBatch(ups []Update) ([]UpdateStats, error) {
	if len(ups) == 0 {
		return nil, nil
	}
	ix.writerMu.Lock()
	defer ix.writerMu.Unlock()
	if err := ix.damagedErr(); err != nil {
		return nil, err
	}

	base := ix.current.Load()
	if err := validateBatch(base.db, ups); err != nil {
		return nil, err
	}

	lastSeq := base.walSeq
	if ix.wal != nil {
		entries := make([]wal.Entry, len(ups), len(ups)+1)
		for i, u := range ups {
			e, err := encodeUpdate(u)
			if err != nil {
				return nil, err
			}
			entries[i] = e
		}
		// The commit record seals the batch: recovery buffers update records
		// and only applies them once their commit arrives, so a group commit
		// torn mid-batch by a crash is discarded whole. The payload carries
		// the batch's record count so replay can also reject stranded update
		// frames from an older torn commit sitting in front of this batch.
		var count [4]byte
		binary.LittleEndian.PutUint32(count[:], uint32(len(ups)))
		entries = append(entries, wal.Entry{Type: wal.TypeCommit, Payload: count[:]})
		var err error
		if _, lastSeq, err = ix.wal.Append(entries...); err != nil {
			return nil, fmt.Errorf("%w: append: %w", ErrWAL, err)
		}
	}

	w := ix.newWorking(base)
	sts, err := w.applyBatch(ups)
	if err != nil {
		// Clean rollback: the working version was never published, so
		// readers keep the intact predecessor. But if the batch reached the
		// WAL it is durably logged as committed while the caller sees a
		// failure — refuse further writes so recovery (replay from the last
		// checkpoint) remains the single source of truth.
		w.abort()
		if ix.wal != nil {
			ix.setDamaged(fmt.Errorf("pvindex: batch through wal seq %d failed mid-apply after logging: %w", lastSeq, err))
		}
		return sts, err
	}
	ix.publishWorking(w, lastSeq)
	return sts, nil
}

// damagedErr reports the sticky write-path failure, if any.
func (ix *Index) damagedErr() error {
	ix.dmgMu.Lock()
	defer ix.dmgMu.Unlock()
	return ix.dmg
}

// setDamaged records the first write-path failure that must fail-stop the
// write and persistence paths.
func (ix *Index) setDamaged(err error) {
	ix.dmgMu.Lock()
	defer ix.dmgMu.Unlock()
	if ix.dmg == nil {
		ix.dmg = err
	}
}

// validateBatch checks a batch against db plus the batch's own earlier
// effects, before anything is logged or applied: ApplyBatch runs it over the
// published database, Recover over the working one ahead of each commit
// group.
func validateBatch(db *uncertain.DB, ups []Update) error {
	delta := make(map[uncertain.ID]bool, len(ups)) // ID -> exists after ops so far
	exists := func(id uncertain.ID) bool {
		if v, ok := delta[id]; ok {
			return v
		}
		return db.Get(id) != nil
	}
	for i, u := range ups {
		switch u.Op {
		case OpInsert:
			if u.Object == nil {
				return fmt.Errorf("pvindex: batch op %d: insert with nil object", i)
			}
			if u.Object.Dim() != db.Dim() {
				return fmt.Errorf("pvindex: batch op %d: object %d has dim %d, domain dim %d",
					i, u.Object.ID, u.Object.Dim(), db.Dim())
			}
			// A WAL insert's layout is fixed by the region's dimension: an
			// instance of another one cannot be encoded, let alone replayed.
			if err := u.Object.Validate(); err != nil {
				return fmt.Errorf("pvindex: batch op %d: %w", i, err)
			}
			if err := db.CheckInDomain(u.Object); err != nil {
				return fmt.Errorf("pvindex: batch op %d: %w", i, err)
			}
			if exists(u.Object.ID) {
				return fmt.Errorf("pvindex: batch op %d: %w: %d", i, uncertain.ErrDuplicateID, u.Object.ID)
			}
			delta[u.Object.ID] = true
		case OpDelete:
			if !exists(u.ID) {
				return fmt.Errorf("pvindex: batch op %d: %w: %d", i, uncertain.ErrUnknownID, u.ID)
			}
			delta[u.ID] = false
		default:
			return fmt.Errorf("pvindex: batch op %d: unknown op %d", i, u.Op)
		}
	}
	return nil
}

// applyBatch is the one write path: it runs the ops of a validated (and, with
// a WAL, logged) non-empty batch against the working version in order — each
// maximal run of inserts set-at-a-time (applyInserts), each delete on its own
// (applyDelete says why). ApplyBatch calls it on a fresh working version,
// Recover once per commit group on the one it replays the whole tail into, so
// a replayed batch does exactly what the live one did. Refinement happens
// inside each op's SE jobs (refine.go), so it is the op's too.
func (w *working) applyBatch(ups []Update) ([]UpdateStats, error) {
	stats := make([]UpdateStats, 0, len(ups))
	for i := 0; i < len(ups); {
		if ups[i].Op == OpDelete {
			st, err := w.applyDelete(ups[i].ID)
			stats = append(stats, st)
			if err != nil {
				return stats, err
			}
			w.mergeWitnessed()
			i++
			continue
		}
		j := i + 1
		for j < len(ups) && ups[j].Op == OpInsert {
			j++
		}
		sts, err := w.applyInserts(ups[i:j])
		stats = append(stats, sts...)
		if err != nil {
			return stats, err
		}
		w.mergeWitnessed()
		i = j
	}
	return stats, nil
}

// applyInserts applies one run of inserts — a single insert, an all-insert
// batch, the inserts between two deletes of a mixed batch — set-at-a-time.
// The run joins the database and the region tree first; then each
// newcomer's UBR is a build row over the database it joins, a cold run
// exactly as Build computes it. Because insertions only ever shrink PV-cells
// (Lemma 9), every affected existing object is recomputed exactly once,
// however many of the run's newcomers touch it, over its witnesses and the
// newcomers that affect it.
//
// The stored UBRs the affected-set filters read are those from before the
// run, upper bounds of the final cells (shrink-only), so filtering against
// them is conservative: no affected object can be missed. The newcomers' runs
// and windows, then the affected rows' runs, fan out on the index's SE pool
// — they read only the working database, trees, UBR table and witness lists,
// which do not change while one runs (the R*-tree browse keeps its state in
// its own iterator, so workers share the tree). The affected rows are merged
// serially in newcomer order, each newcomer's ascending by ID, so the
// write-back order is fixed by the batch.
func (w *working) applyInserts(ups []Update) ([]UpdateStats, error) {
	ix := w.ix
	n := len(ups)
	stats := make([]UpdateStats, n)
	start := time.Now()
	defer func() {
		// TotalTime per op: its share of the run's wall clock.
		per := time.Since(start) / time.Duration(n)
		for i := range stats {
			stats[i].TotalTime = per
		}
	}()

	// Phase 1: database and region tree. Validation already cleared every
	// op, so Add cannot fail on IDs; any error here is fatal corruption.
	for _, u := range ups {
		if err := w.db.Add(u.Object); err != nil {
			return stats, err
		}
		w.regionTree.Insert(rtree.Item{Rect: u.Object.Region, ID: uint32(u.Object.ID)})
	}

	// Phase 2: each newcomer's UBR and witnesses, a cold run over the
	// database with the run in it, and its window, filtered on the pool;
	// then the windows merge in newcomer order into the union of affected
	// existing objects, each with its pre-run UBR, witnesses, affecting
	// newcomers and first op (for stats).
	ubrs := make([]geom.Rect, n)
	lists := make([][]uint32, n)
	hits := make([][]row, n)
	errs := make([]error, n)
	ix.parallelSE(n, func(i int) {
		t0 := time.Now()
		ubrs[i], lists[i], stats[i].SE = w.se(ups[i].Object, seStart{})
		stats[i].SETime = time.Since(t0)
		hits[i], stats[i].Examined, errs[i] = w.window(ups[i].Object, ubrs[i])
	})
	affected, ops := []row(nil), []int(nil)
	seen := make(map[uint32]int)
	for i, u := range ups {
		if errs[i] != nil {
			return stats, errs[i]
		}
		for _, h := range hits[i] {
			if k, dup := seen[h.id]; dup {
				affected[k].from.extra = append(affected[k].from.extra, uint32(u.Object.ID))
				continue
			}
			seen[h.id] = len(affected)
			h.from.has, h.from.extra = w.witnesses.get(h.id), []uint32{uint32(u.Object.ID)}
			affected = append(affected, h)
			ops = append(ops, i)
			stats[i].Affected++
		}
	}

	// Phase 3: recompute each affected object once (warm-started — its cell
	// can only have shrunk) and patch the rows whose UBR moved.
	if err := w.recompute(affected, func(k int) *UpdateStats { return &stats[ops[k]] }); err != nil {
		return stats, err
	}

	// Phase 4: newcomers enter the UBR table and the primary index.
	for i, u := range ups {
		t0 := time.Now()
		if err := w.addObject(u.Object, ubrs[i]); err != nil {
			return stats, err
		}
		w.setWitnesses(uint32(u.Object.ID), lists[i])
		stats[i].IndexTime += time.Since(t0)
	}
	return stats, nil
}

// window lists, ascending by ID, the existing objects newcomer u may affect
// — those in the octree window of its UBR b whose regions miss u(o) (Lemma
// 8(3)) and whose stored UBRs meet b (Lemma 8(2) via UBRs: disjoint bounds
// imply disjoint cells) — each as a row starting from that UBR, and the
// window's size. Newcomers enter the octree only after every window is
// taken, so none is listed. It only reads, so windows fan out.
func (w *working) window(u *uncertain.Object, b geom.Rect) ([]row, int, error) {
	ids, err := w.primary.RangeIDs(b, nil)
	if err != nil {
		return nil, 0, err
	}
	var hits []row
	for _, id := range ids {
		if other := w.db.Get(uncertain.ID(id)); other == nil || other.Region.Intersects(u.Region) {
			continue
		}
		if oldB, ok := w.lookupUBR(id); ok && oldB.Intersects(b) {
			hits = append(hits, row{id, seStart{prev: oldB}})
		}
	}
	return hits, len(ids), nil
}

// row is a row an update recomputes and where its SE job starts.
type row struct {
	id   uint32
	from seStart
}

// recompute runs the rows' SE jobs on the worker pool, then writes each back
// serially — its witness list, and its UBR and octree entries unless its
// UBR came back as it was — accounting row k to *stat(k).
func (w *working) recompute(rows []row, stat func(k int) *UpdateStats) error {
	ubrs := make([]geom.Rect, len(rows))
	lists := make([][]uint32, len(rows))
	took := make([]time.Duration, len(rows))
	sts := make([]core.Stats, len(rows))
	w.ix.parallelSE(len(rows), func(k int) {
		t0 := time.Now()
		ubrs[k], lists[k], sts[k] = w.se(w.db.Get(uncertain.ID(rows[k].id)), rows[k].from)
		took[k] = time.Since(t0)
	})
	w.ix.rowsRecomputed.Add(int64(len(rows)))
	for k, r := range rows {
		st := stat(k)
		st.SETime += took[k]
		st.SE.Add(sts[k])
		w.setWitnesses(r.id, lists[k])
		if ubrs[k].Equal(r.from.prev) {
			st.Unchanged++
			continue
		}
		w.ix.rowsPatched.Add(1)
		t0 := time.Now()
		if err := w.moveRow(w.db.Get(uncertain.ID(r.id)), r.from.prev, ubrs[k]); err != nil {
			return err
		}
		st.IndexTime += time.Since(t0)
	}
	return nil
}

// parallelSE runs fn(0..n-1) on the index's SE pool (parallelFor over
// ix.pool workers, the caller among them) — every fan-out of the build and
// the write path: the SE jobs and the insert windows, all read-only over the
// database, trees and witness lists they run against.
func (ix *Index) parallelSE(n int, fn func(i int)) {
	parallelFor(ix.pool, n, fn)
}

// AttachWAL binds a write-ahead log to the index: every subsequent
// ApplyBatch (and Insert/Delete, which are one-op batches) appends its
// updates to l before applying them. Attach before serving writers; it is
// not safe to call concurrently with updates.
func (ix *Index) AttachWAL(l *wal.Log) { ix.wal = l }

// WALSeq returns the sequence number of the last WAL record this index has
// applied (0 if none). A snapshot saved at this value plus a replay of all
// later WAL records reproduces the index's current state. Lock-free.
func (ix *Index) WALSeq() uint64 {
	return ix.current.Load().walSeq
}

// Recover replays every WAL record beyond the index's last applied
// sequence — the tail the current snapshot is missing — and returns how
// many updates it applied. Each commit group is validated and run through
// applyBatch, exactly as ApplyBatch ran it, so the recovered index is the
// live one bit for bit: same database order, stored UBRs.
// The whole tail applies to one working version (one database clone, one
// publish at the end), so replay cost stays O(affected objects) per group,
// not O(index size); queries already being served keep reading the
// pre-replay version until the single publish.
//
// Update records buffer until their batch's commit record arrives and only
// then apply, so a group commit torn mid-batch by a crash — some frames
// durable, the commit lost — is discarded whole, never replayed as half a
// batch. Records without a sealing commit (legacy logs, torn tails) were
// never acknowledged, so dropping them is the correct crash semantics; a
// commit applies only the records of its own batch (its payload carries the
// count) and a checkpoint record clears the buffer, so stranded frames from
// a tear that ended exactly on a frame boundary can never be adopted by a
// later batch's commit — even if they predate the sealed-open truncation
// that now removes them from the log. A replay error — a group that fails
// validation included: a log written before batches were checked for
// malformed objects may hold one — names the commit and discards the working
// version entirely: the index stays at its checkpoint state.
func (ix *Index) Recover() (int, error) {
	if ix.wal == nil {
		return 0, fmt.Errorf("pvindex: Recover without an attached WAL")
	}
	ix.writerMu.Lock()
	defer ix.writerMu.Unlock()
	if err := ix.damagedErr(); err != nil {
		return 0, err
	}

	base := ix.current.Load()
	var w *working // created lazily on the first committed update
	var pending []Update
	lastSeq := base.walSeq
	replayed := 0
	err := ix.wal.Replay(base.walSeq+1, func(rec wal.Record) error {
		switch rec.Type {
		case wal.TypeCheckpoint:
			// A checkpoint record never lands inside a group commit (a
			// batch's frames are one atomic append), so anything still
			// buffered here is the stranded tail of a torn, unacknowledged
			// batch — discard it, never let a later commit adopt it.
			pending = pending[:0]
			lastSeq = rec.Seq
			return nil
		case wal.TypeCommit:
			// The commit payload carries its batch's record count: apply
			// exactly the last count buffered updates. Older buffered
			// entries are stranded frames of a torn batch that was never
			// acknowledged (and that a sealed wal.Open would have truncated)
			// — resurrecting them would replay half a batch. An empty
			// payload is a legacy commit: it seals everything buffered.
			if len(rec.Payload) >= 4 {
				want := int(binary.LittleEndian.Uint32(rec.Payload[:4]))
				if want > len(pending) {
					return fmt.Errorf("pvindex: wal commit %d seals %d updates but only %d precede it", rec.Seq, want, len(pending))
				}
				pending = pending[len(pending)-want:]
			}
			if len(pending) > 0 {
				if w == nil {
					w = ix.newWorking(base)
				}
				err := validateBatch(w.db, pending)
				if err == nil {
					_, err = w.applyBatch(pending)
				}
				if err != nil {
					return fmt.Errorf("pvindex: replaying wal batch at commit %d: %w", rec.Seq, err)
				}
				replayed += len(pending)
			}
			pending = pending[:0]
			lastSeq = rec.Seq
			return nil
		}
		u, err := decodeUpdate(rec)
		if err != nil {
			return err
		}
		pending = append(pending, u)
		return nil
	})
	if err != nil {
		if w != nil {
			w.abort()
		}
		return replayed, err
	}
	switch {
	case w != nil:
		ix.publishWorking(w, lastSeq)
	case lastSeq != base.walSeq:
		// Only checkpoint records: acknowledge the advanced sequence with a
		// structure-sharing publish.
		ix.publish(&version{epoch: base.epoch + 1, walSeq: lastSeq, state: base.state}, nil)
	}
	return replayed, nil
}
