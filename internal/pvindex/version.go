package pvindex

import (
	"fmt"
	"sync/atomic"

	"pvoronoi/internal/exthash"
	"pvoronoi/internal/geom"
	"pvoronoi/internal/octree"
	"pvoronoi/internal/pagestore"
	"pvoronoi/internal/rtree"
	"pvoronoi/internal/uncertain"
)

// version is one immutable MVCC snapshot of the whole index: the database,
// the octree primary index, the extendible-hash secondary index (UBR + pdf
// records), the region R*-tree and the witness lists, all consistent as of
// one write epoch.
//
// Lifecycle: a writer builds the next version copy-on-write from the current
// one (sharing every untouched node and page), publishes it with a single
// atomic pointer swap, and retires the predecessor. Readers pin a version
// with two atomic operations and no locks; the retired version's exclusive
// pages are reclaimed once its last pinned reader drains and every older
// version has already been reclaimed.
type version struct {
	// epoch is the version's sequence number, starting at 1 for the built
	// (or loaded) index and incremented by every published write.
	epoch uint64
	// walSeq is the sequence number of the last WAL record applied as of
	// this version (0 when none).
	walSeq uint64

	db                   *uncertain.DB
	primary              *octree.Tree
	secondary            *exthash.Table
	regionTree           *rtree.Tree
	witnesses, witnessed *idLists // witness lists and reverse index

	// readers counts pinned readers. A version with readers > 0 is never
	// reclaimed; transient increments from the pin retry loop are harmless
	// because they are reverted without touching any data.
	readers atomic.Int64
	// retired flips to true once a successor has been published. Only
	// retired versions are eligible for reclamation.
	retired atomic.Bool
	// freed lists the pages this version references that its successor
	// dropped (shadow-copied or deleted). They are returned to the store
	// when this version — and by reclaim order, every older one — drains.
	freed []pagestore.PageID
}

// pin returns the current version with its reader count held. The increment-
// then-recheck loop closes the race against a concurrent publish: if the
// pointer moved between the load and the increment, the stale count is
// reverted (possibly triggering the reclaim the writer skipped) and the load
// retries. No locks, no syscalls — queries never wait for writers.
func (ix *Index) pin() *version {
	for {
		v := ix.current.Load()
		v.readers.Add(1)
		if ix.current.Load() == v {
			return v
		}
		ix.unpin(v)
	}
}

// unpin releases a pinned version. A reader that drains a retired version
// hands the reclaim sweep to a fresh goroutine rather than running it
// inline — freeing a large batch's shadow-page backlog must not land on one
// unlucky query's latency. This happens at most once per version (the drain
// event), not per query; publishes still sweep synchronously, so an idle
// index converges without any writes in flight.
func (ix *Index) unpin(v *version) {
	if v.readers.Add(-1) == 0 && v.retired.Load() {
		go ix.tryReclaim()
	}
}

// publish makes next the current version: the pointer swaps, then the
// predecessor retires with the batch's deferred page frees attached.
func (ix *Index) publish(next *version, freed []pagestore.PageID) {
	old := ix.current.Load()
	old.freed = freed
	ix.reclaimMu.Lock()
	ix.retired = append(ix.retired, old)
	ix.reclaimMu.Unlock()
	ix.current.Store(next)
	old.retired.Store(true)
	ix.tryReclaim()
}

// tryReclaim frees the page sets of drained retired versions, oldest first.
// Order matters: a page on version V's freed list may still be referenced
// by versions older than V, so it is returned to the store only when V
// reaches the front of the queue — i.e. when everything older is gone. The
// sweep stops at the first version still pinned or not yet retired.
func (ix *Index) tryReclaim() {
	ix.reclaimMu.Lock()
	defer ix.reclaimMu.Unlock()
	for len(ix.retired) > 0 {
		v := ix.retired[0]
		if !v.retired.Load() || v.readers.Load() != 0 {
			break
		}
		for _, p := range v.freed {
			_ = ix.store.Free(p)
		}
		v.freed = nil
		ix.retired[0] = nil
		ix.retired = ix.retired[1:]
		ix.reclaims++
	}
	if len(ix.retired) == 0 {
		ix.retired = nil
	}
}

// Epoch returns the published write epoch: 1 after construction, +1 per
// applied batch (and per replayed WAL record). Lock-free.
func (ix *Index) Epoch() uint64 { return ix.current.Load().epoch }

// MVCCStats reports the snapshot lifecycle's gauges for monitoring.
type MVCCStats struct {
	// Epoch is the current published write epoch.
	Epoch uint64
	// WALSeq is the last applied WAL sequence as of the current version.
	WALSeq uint64
	// InFlightReaders counts currently pinned readers across all live
	// versions (approximate under concurrent traffic).
	InFlightReaders int64
	// LiveVersions counts the current version plus retired versions still
	// awaiting reclamation (1 when no reader lags behind the writer).
	LiveVersions int
	// Reclaimed counts versions whose exclusive pages have been returned
	// to the store since the index was built.
	Reclaimed int64
}

// MVCC returns the snapshot lifecycle gauges.
func (ix *Index) MVCC() MVCCStats {
	ix.reclaimMu.Lock()
	defer ix.reclaimMu.Unlock()
	cur := ix.current.Load()
	st := MVCCStats{
		Epoch:        cur.epoch,
		WALSeq:       cur.walSeq,
		LiveVersions: len(ix.retired) + 1,
		Reclaimed:    ix.reclaims,
	}
	st.InFlightReaders = cur.readers.Load()
	for _, v := range ix.retired {
		st.InFlightReaders += v.readers.Load()
	}
	return st
}

// ubr reads an object's stored UBR from its record's header in v.
func (v *version) ubr(id uncertain.ID) (geom.Rect, bool) {
	return storedUBR(v.secondary, uint32(id), v.db.Dim())
}

// instances returns an object's pdf instances in v: those of v's own
// database object. Every record in v's secondary index was encoded from that
// object, which no write mutates (a version's database is immutable, and an
// object is adopted on insert), so Step 2 reads the pdf where it already
// lives instead of decoding the record's copy.
func (v *version) instances(id uncertain.ID) ([]uncertain.Instance, error) {
	o := v.db.Get(id)
	if o == nil {
		return nil, fmt.Errorf("pvindex: object %d not in secondary index", id)
	}
	return o.Instances, nil
}
