package pvindex

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
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

// seMode selects how an insert's UBR is obtained during batch application.
type seMode int

const (
	// seUseStaged reuses the UBR staged before the apply unchanged — valid
	// when no earlier batch op could have affected the newcomer's PV-cell.
	seUseStaged seMode = iota
	// seWarmStart re-runs SE warm-started from the staged UBR as the upper
	// bound — valid when only earlier *inserts* interact (Lemma 9: the cell
	// can only have shrunk).
	seWarmStart
	// seCold recomputes from scratch — required when an earlier delete
	// interacts (the cell may have grown beyond the staged bound).
	seCold
)

// stagedSE is the pre-apply SE precomputation for one insert: the
// newcomer's UBR over the pre-batch database, with its cost profile.
type stagedSE struct {
	ubr   geom.Rect
	stats core.Stats
	dur   time.Duration
}

// impact records the region of influence of one applied batch op: the new
// object's UBR for an insert, the victim's stored UBR for a delete. A staged
// UBR that intersects no earlier impact is still exact.
type impact struct {
	rect     geom.Rect
	isDelete bool
}

// ApplyBatch applies a batch of updates as one group commit onto a fresh
// MVCC version:
//
//  1. The whole batch is validated and every insert's SE computation is
//     staged against the current published version (in parallel across the
//     batch) — queries keep flowing, untouched.
//  2. If a WAL is attached (Config.WAL / AttachWAL), the batch is appended
//     to the log and made durable with a single fsync before any state
//     changes — log-then-apply, so recovery can replay it.
//  3. All updates apply to a copy-on-write working version (shared pages
//     and nodes are shadow-copied, never rewritten), which then publishes
//     with a single atomic pointer swap. Readers never observe a partial
//     batch and never wait: the previous version keeps serving until the
//     swap, then drains and is reclaimed.
//
// Validation is all-or-nothing: a duplicate insert ID or unknown delete ID
// anywhere in the batch (accounting for earlier ops in the same batch)
// fails the whole batch before anything is logged or applied. Concurrent
// ApplyBatch calls serialize; queries never block on any phase.
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
	staged, err := ix.stageBatch(base, ups)
	if err != nil {
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
		if _, lastSeq, err = ix.wal.Append(entries...); err != nil {
			return nil, fmt.Errorf("%w: append: %w", ErrWAL, err)
		}
	}

	w := ix.newWorking(base)
	sts, err := w.apply(ups, staged)
	if err == nil {
		err = w.updateAdjacency()
	}
	if err == nil {
		// Budget-aware re-refinement of the rows this batch recomputed
		// (refine.go). The pass is batch-scoped, so its cost lands on the
		// batch's first op — UpdateStats.SE.Refine keeps it apart from the
		// base SE counters.
		var rst core.RefineStats
		if rst, err = w.refineAfterBatch(); err == nil && len(sts) > 0 {
			sts[0].SE.Refine.Add(rst)
			sts[0].AdjTime = w.adjTime
		}
	}
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

// stageBatch validates the batch and precomputes every insert's UBR over
// the published version's state, in parallel. writerMu (held by the caller)
// guarantees no writer can shift the state underneath; queries proceed
// untouched because nothing here mutates.
func (ix *Index) stageBatch(base *version, ups []Update) ([]stagedSE, error) {
	// Validate against the database plus the batch's own earlier effects.
	delta := make(map[uncertain.ID]bool, len(ups)) // ID -> exists after ops so far
	exists := func(id uncertain.ID) bool {
		if v, ok := delta[id]; ok {
			return v
		}
		return base.db.Get(id) != nil
	}
	for i, u := range ups {
		switch u.Op {
		case OpInsert:
			if u.Object == nil {
				return nil, fmt.Errorf("pvindex: batch op %d: insert with nil object", i)
			}
			if u.Object.Dim() != base.db.Dim() {
				return nil, fmt.Errorf("pvindex: batch op %d: object %d has dim %d, domain dim %d",
					i, u.Object.ID, u.Object.Dim(), base.db.Dim())
			}
			if err := base.db.CheckInDomain(u.Object); err != nil {
				return nil, fmt.Errorf("pvindex: batch op %d: %w", i, err)
			}
			if exists(u.Object.ID) {
				return nil, fmt.Errorf("pvindex: batch op %d: %w: %d", i, uncertain.ErrDuplicateID, u.Object.ID)
			}
			delta[u.Object.ID] = true
		case OpDelete:
			if !exists(u.ID) {
				return nil, fmt.Errorf("pvindex: batch op %d: %w: %d", i, uncertain.ErrUnknownID, u.ID)
			}
			delta[u.ID] = false
		default:
			return nil, fmt.Errorf("pvindex: batch op %d: unknown op %d", i, u.Op)
		}
	}

	// Stage SE for the inserts with a worker pool. ChooseCSet skips the
	// object's own ID, so computing a newcomer's UBR before it is added
	// yields exactly what Insert would compute after adding it; R*-tree
	// browsing mutates only atomic counters, so workers share the tree.
	staged := make([]stagedSE, len(ups))
	var idxs []int
	for i, u := range ups {
		if u.Op == OpInsert {
			idxs = append(idxs, i)
		}
	}
	ix.parallelSE(len(idxs), func(k int) {
		i := idxs[k]
		t0 := time.Now()
		staged[i].ubr, staged[i].stats = core.ComputeUBR(base.db, base.regionTree, ups[i].Object, ix.cfg.SE)
		staged[i].dur = time.Since(t0)
	})
	return staged, nil
}

// apply runs a validated, staged, logged batch against the working version.
func (w *working) apply(ups []Update, staged []stagedSE) ([]UpdateStats, error) {
	insertsOnly := true
	for _, u := range ups {
		if u.Op != OpInsert {
			insertsOnly = false
			break
		}
	}
	if insertsOnly && len(ups) > 1 {
		return w.applyInserts(ups, staged)
	}

	stats := make([]UpdateStats, 0, len(ups))
	var impacts []impact
	for i, u := range ups {
		switch u.Op {
		case OpInsert:
			mode := seUseStaged
			for _, im := range impacts {
				if !im.rect.Intersects(staged[i].ubr) {
					continue
				}
				if im.isDelete {
					mode = seCold
					break
				}
				mode = seWarmStart
			}
			st, newB, err := w.applyInsert(u.Object, &staged[i], mode)
			if err != nil {
				return stats, err
			}
			stats = append(stats, st)
			impacts = append(impacts, impact{rect: newB})
		case OpDelete:
			st, victimUBR, err := w.applyDelete(u.ID)
			if err != nil {
				return stats, err
			}
			stats = append(stats, st)
			impacts = append(impacts, impact{rect: victimUBR, isDelete: true})
		}
	}
	return stats, nil
}

// applyInserts is the group-commit fast path for an all-insert batch.
// Because insertions only ever shrink PV-cells (Lemma 9), the whole batch
// can be applied set-at-a-time instead of op-at-a-time:
//
//   - every newcomer's UBR is finalized against the final database state
//     (reusing the staged UBR outright when it intersects no other
//     newcomer's — disjoint bounds mean disjoint cells, hence no mutual
//     influence — and warm-starting from it otherwise), and
//   - every affected existing object is recomputed exactly once, however
//     many batch inserts touch it, instead of once per triggering op.
//
// The pre-batch stored UBRs used for the affected-set filters are upper
// bounds of the final cells (shrink-only), so filtering against them is
// conservative: no affected object can be missed. Both recompute phases
// fan out across a worker pool — SE reads only the working database and
// region tree, which no longer change at that point.
func (w *working) applyInserts(ups []Update, staged []stagedSE) ([]UpdateStats, error) {
	ix := w.ix
	n := len(ups)
	stats := make([]UpdateStats, n)
	batchStart := time.Now()
	defer func() {
		// TotalTime per op: its share of the batch's wall clock plus its
		// attributed staging time (spent before the apply).
		per := time.Since(batchStart) / time.Duration(n)
		for i := range stats {
			stats[i].TotalTime = per + staged[i].dur
		}
	}()

	// Phase 1: database and region tree. Validation already cleared every
	// op, so Add cannot fail on IDs; any error here is fatal corruption.
	newcomer := make(map[uint32]struct{}, n)
	for _, u := range ups {
		if err := w.db.Add(u.Object); err != nil {
			return nil, err
		}
		w.regionTree.Insert(rtree.Item{Rect: u.Object.Region, ID: uint32(u.Object.ID)})
		newcomer[uint32(u.Object.ID)] = struct{}{}
	}

	// Phase 2: final newcomer UBRs over the completed database.
	finalB := make([]geom.Rect, n)
	needsRefine := make([]bool, n)
	for i := range ups {
		stats[i].SETime += staged[i].dur
		stats[i].SE.Add(staged[i].stats)
		for j := range ups {
			if j != i && staged[j].ubr.Intersects(staged[i].ubr) {
				needsRefine[i] = true
				break
			}
		}
		if !needsRefine[i] {
			finalB[i] = staged[i].ubr
		}
	}
	ix.parallelSE(n, func(i int) {
		if !needsRefine[i] {
			return
		}
		t0 := time.Now()
		b, s := core.ComputeUBRAfterInsert(w.db, w.regionTree, ups[i].Object, staged[i].ubr, ix.cfg.SE)
		finalB[i] = b
		stats[i].SETime += time.Since(t0)
		stats[i].SE.Add(s)
	})

	// Phase 3: the union of affected existing objects, each with its
	// pre-batch UBR and the first op that touched it (for stats).
	type affectedObj struct {
		id   uint32
		oldB geom.Rect
		op   int
	}
	var affected []affectedObj
	seen := make(map[uint32]struct{})
	for i, u := range ups {
		ids, err := w.primary.RangeIDs(finalB[i])
		if err != nil {
			return stats, err
		}
		stats[i].Examined = len(ids)
		for id := range ids {
			if _, isNew := newcomer[id]; isNew {
				continue
			}
			if _, dup := seen[id]; dup {
				continue
			}
			other := w.db.Get(uncertain.ID(id))
			if other == nil {
				continue
			}
			// Lemma 8(3): objects whose regions overlap u(o) are unaffected.
			if other.Region.Intersects(u.Object.Region) {
				continue
			}
			oldB, ok := w.lookupUBR(id)
			if !ok {
				continue
			}
			// Lemma 8(2) via UBRs: disjoint bounds imply disjoint cells.
			if !oldB.Intersects(finalB[i]) {
				continue
			}
			seen[id] = struct{}{}
			affected = append(affected, affectedObj{id: id, oldB: oldB, op: i})
			stats[i].Affected++
		}
	}

	// Phase 4: recompute each affected object once (warm-started — its cell
	// can only have shrunk), then patch the indexes serially, leaving alone
	// the rows whose UBR came back as it was. SE results land in per-object
	// slots; stats fold serially afterward because several affected objects
	// may attribute to the same op.
	updatedB := make([]geom.Rect, len(affected))
	seDur := make([]time.Duration, len(affected))
	seStats := make([]core.Stats, len(affected))
	ix.parallelSE(len(affected), func(k int) {
		a := affected[k]
		other := w.db.Get(uncertain.ID(a.id))
		t0 := time.Now()
		updatedB[k], seStats[k] = core.ComputeUBRAfterInsert(w.db, w.regionTree, other, a.oldB, ix.cfg.SE)
		seDur[k] = time.Since(t0)
	})
	for k, a := range affected {
		stats[a.op].SETime += seDur[k]
		stats[a.op].SE.Add(seStats[k])
		if updatedB[k].Equal(a.oldB) {
			stats[a.op].Unchanged++
			continue
		}
		other := w.db.Get(uncertain.ID(a.id))
		t0 := time.Now()
		if _, err := w.primary.RemoveDiff(a.id, a.oldB, updatedB[k]); err != nil {
			return stats, err
		}
		rec := record{UBR: updatedB[k], Region: other.Region, Instances: other.Instances}
		if err := w.putRecord(a.id, rec); err != nil {
			return stats, err
		}
		w.adjMarkChanged(a.id)
		stats[a.op].IndexTime += time.Since(t0)
	}

	// Phase 5: newcomers enter the primary and secondary indexes.
	for i, u := range ups {
		t0 := time.Now()
		if err := w.addObject(u.Object, finalB[i]); err != nil {
			return stats, err
		}
		w.adjMarkChanged(uint32(u.Object.ID))
		stats[i].IndexTime += time.Since(t0)
	}
	return stats, nil
}

// parallelSE runs fn(0..n-1) across a worker pool sized to GOMAXPROCS —
// used for the SE staging and recomputation fan-outs, which are read-only
// over the database and region tree they run against.
func (ix *Index) parallelSE(n int, fn func(i int)) {
	parallelFor(runtime.GOMAXPROCS(0), n, fn)
}

// AttachWAL binds a write-ahead log to the index: every subsequent
// ApplyBatch (and Insert/Delete, which are one-op batches) appends its
// updates to l before applying them. Attach before serving writers; it is
// not safe to call concurrently with updates.
func (ix *Index) AttachWAL(l *wal.Log) { ix.wal = l }

// WAL returns the attached write-ahead log, or nil.
func (ix *Index) WAL() *wal.Log { return ix.wal }

// WALSeq returns the sequence number of the last WAL record this index has
// applied (0 if none). A snapshot saved at this value plus a replay of all
// later WAL records reproduces the index's current state. Lock-free.
func (ix *Index) WALSeq() uint64 {
	return ix.current.Load().walSeq
}

// Recover replays every WAL record beyond the index's last applied
// sequence — the tail the current snapshot is missing — and returns how
// many updates it applied. The whole tail applies to one working version
// (one database clone, one publish at the end), so replay cost stays
// O(affected objects) per record, not O(index size); queries already being
// served keep reading the pre-replay version until the single publish.
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
// that now removes them from the log. A replay error discards the working
// version entirely — the index stays at its checkpoint state.
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
			if len(pending) > 0 && w == nil {
				w = ix.newWorking(base)
			}
			for _, u := range pending {
				var aerr error
				switch u.Op {
				case OpInsert:
					_, _, aerr = w.applyInsert(u.Object, nil, seCold)
				case OpDelete:
					_, _, aerr = w.applyDelete(u.ID)
				}
				if aerr != nil {
					return fmt.Errorf("pvindex: replaying wal batch at commit %d: %w", rec.Seq, aerr)
				}
				replayed++
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
		if err := w.updateAdjacency(); err != nil {
			w.abort()
			return replayed, err
		}
		// Re-refine the replayed rows like the original batches did.
		// Refinement is not WAL-logged (it changes no query result), so the
		// recovered UBRs may be tighter or looser than the pre-crash ones —
		// either way they are supersets of the true cells, and exact.
		if _, err := w.refineAfterBatch(); err != nil {
			w.abort()
			return replayed, err
		}
		ix.publishWorking(w, lastSeq)
	case lastSeq != base.walSeq:
		// Only checkpoint records: acknowledge the advanced sequence with a
		// structure-sharing publish.
		ix.publish(&version{
			epoch:      base.epoch + 1,
			walSeq:     lastSeq,
			db:         base.db,
			primary:    base.primary,
			secondary:  base.secondary,
			regionTree: base.regionTree,
			adj:        base.adj,
		}, nil, nil)
	}
	return replayed, nil
}
