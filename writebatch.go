package pvoronoi

import (
	"pvoronoi/internal/pvindex"
)

// Op selects the kind of one batched write operation.
type Op = pvindex.Op

// Write operation kinds.
const (
	// OpInsert adds Update.Object.
	OpInsert = pvindex.OpInsert
	// OpDelete removes the object with Update.ID.
	OpDelete = pvindex.OpDelete
)

// Update is one operation of a write batch: an insert carrying an object,
// or a delete carrying an ID.
type Update = pvindex.Update

// ErrWAL marks write-ahead-log failures surfaced by the update path (disk
// full, I/O error) — server-side durability faults, not invalid requests.
var ErrWAL = pvindex.ErrWAL

// InsertOp wraps an object as a batch insert operation.
func InsertOp(o *Object) Update { return Update{Op: OpInsert, Object: o} }

// DeleteOp wraps an ID as a batch delete operation.
func DeleteOp(id ID) Update { return Update{Op: OpDelete, ID: id} }

// ApplyBatch applies a mixed batch of inserts and deletes as one group
// commit: the whole batch is validated, logged to the write-ahead log with a
// single fsync when one is attached (durable mode), and applied to a
// copy-on-write working version — each run of consecutive inserts
// set-at-a-time, its UBR computations in parallel, while queries keep running
// — that publishes with one atomic pointer swap: readers never block and
// never observe a partial batch. Per-op maintenance stats return
// positionally.
//
// Validation is all-or-nothing: a malformed object (Object.Validate), a
// duplicate insert ID or an unknown delete ID anywhere in the batch fails it
// before anything is logged or applied.
// Later ops see earlier ops' effects, so a delete followed by an insert of
// the same ID is one atomic replacement.
func (ix *Index) ApplyBatch(ups []Update) ([]UpdateStats, error) {
	return ix.inner.ApplyBatch(ups)
}

// InsertBatch adds all objects as one group commit (see ApplyBatch). It is
// the amortized alternative to calling Insert in a loop: one published
// version and one WAL fsync for the whole batch instead of one each per
// object.
func (ix *Index) InsertBatch(objs []*Object) ([]UpdateStats, error) {
	ups := make([]Update, len(objs))
	for i, o := range objs {
		ups[i] = Update{Op: OpInsert, Object: o}
	}
	return ix.inner.ApplyBatch(ups)
}

// DeleteBatch removes all the given IDs as one group commit (see
// ApplyBatch).
func (ix *Index) DeleteBatch(ids []ID) ([]UpdateStats, error) {
	ups := make([]Update, len(ids))
	for i, id := range ids {
		ups[i] = Update{Op: OpDelete, ID: id}
	}
	return ix.inner.ApplyBatch(ups)
}

// WALSeq returns the sequence number of the last write-ahead-log record
// the index has applied (0 when no WAL is attached or nothing was logged).
func (ix *Index) WALSeq() uint64 { return ix.inner.WALSeq() }
