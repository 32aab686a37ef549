// Package pagestore simulates the disk layer of the paper's testbed: a store
// of fixed-size pages (4 KB in the experiments) with read/write counters.
//
// The paper reports query cost partly as leaf-page I/O (Figs. 9(c), 9(g));
// counting page touches on an in-memory store preserves the orderings and
// ratios between competing indexes without needing a physical disk. The
// one disk-resident structure of an index, the octree's leaf lists (the
// PV-index's and the UV-index's), allocates its pages here; the R*-tree is
// main-memory, and the extendible hash (internal/exthash), which keeps its
// buckets here too, is held by no index.
//
// Pages live in extent-based slab arenas: large contiguous []byte slabs
// carved into fixed-size pages, with PageID → (extent, offset) resolved by
// arithmetic instead of a map lookup. Freed pages go onto an explicit
// free-list and are recycled on the next Alloc, so steady-state MVCC churn
// allocates nothing and the GC sees a handful of slab pointers instead of
// one heap object per live page.
//
// The store's one contract is copy-on-write ownership: a page is written only
// through the COWSession that owns it (COWSession.Write refuses any other),
// and a session owns only the pages it allocated — every page a published
// version can reach was allocated by an earlier session and is therefore
// never rewritten. Freeing is deferred until no reader can see the page (the
// MVCC reclaimer's job). Reads need no lock: View lends the slab bytes, and
// no write can land on them while a reader holds them.
package pagestore

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
)

// DefaultPageSize is the page size used throughout the experiments (4 KB).
const DefaultPageSize = 4096

// extentTargetBytes is the aimed-for slab size. The actual pages-per-extent
// is the largest power of two fitting the target, clamped so tiny test page
// sizes don't produce absurd extents and huge pages still batch allocation.
const (
	extentTargetBytes = 4 << 20
	minPagesPerExtent = 64
	maxPagesPerExtent = 4096
)

// PageID identifies a page within a Store. Zero is never a valid page.
type PageID uint32

// Stats is a snapshot of I/O counters.
type Stats struct {
	Reads  int64 // pages read
	Writes int64 // pages written
	Allocs int64 // pages allocated over the store's lifetime
	Frees  int64 // pages freed
}

// Sub returns the counter deltas from an earlier snapshot.
func (s Stats) Sub(earlier Stats) Stats {
	return Stats{
		Reads:  s.Reads - earlier.Reads,
		Writes: s.Writes - earlier.Writes,
		Allocs: s.Allocs - earlier.Allocs,
		Frees:  s.Frees - earlier.Frees,
	}
}

// IO returns total page touches (reads + writes).
func (s Stats) IO() int64 { return s.Reads + s.Writes }

// extent is one contiguous slab of pages plus a liveness bitmap. The slab is
// allocated once and never moves or shrinks, so a pointer into it stays valid
// for the life of the store — the property the zero-copy View path rests on.
// Bitmap words are only ever touched atomically: Alloc and Free flip bits
// under allocMu while readers load them without any lock.
type extent struct {
	data []byte
	live []atomic.Uint64
}

// Store is a page allocator with I/O accounting. It is safe for concurrent
// use under the package's ownership rule. Pages are slots in large slab
// extents located by pointer arithmetic; a liveness bitmap (atomic words)
// gates access. Allocator state (free list, next ID, page limit, extent
// growth) sits behind allocMu, the store's only lock, and the I/O counters
// are atomics so accounting never serializes the read path.
type Store struct {
	pageSize int

	// extents holds the current slice of slabs behind an atomic pointer:
	// growth copies the slice and swaps the pointer, so lock-free readers
	// always see a consistent prefix and slabs themselves never move.
	// extShift/extMask turn a page index into (extent, slot).
	extents  atomic.Pointer[[]*extent]
	extShift uint32
	extMask  uint32

	allocMu sync.Mutex
	free    []PageID
	next    PageID
	limit   int // max live pages; 0 = unlimited
	live    atomic.Int64

	reads, writes, allocs, frees atomic.Int64
}

// ErrFull is returned by Alloc when the store's page limit is exhausted.
var ErrFull = errors.New("pagestore: page limit exhausted")

// New returns an arena-backed store with the given page size
// (DefaultPageSize if <= 0).
func New(pageSize int) *Store {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	s := &Store{pageSize: pageSize, next: 1}
	pp := min(max(extentTargetBytes/pageSize, minPagesPerExtent), maxPagesPerExtent)
	s.extShift = uint32(bits.Len(uint(pp))) - 1 // the largest power of two ≤ pp
	s.extMask = 1<<s.extShift - 1
	empty := []*extent{}
	s.extents.Store(&empty)
	return s
}

// NewLimited returns a store that fails Alloc after maxPages live pages,
// for failure-injection tests.
func NewLimited(pageSize, maxPages int) *Store {
	s := New(pageSize)
	s.limit = maxPages
	return s
}

// PageSize returns the size in bytes of each page.
func (s *Store) PageSize() int { return s.pageSize }

// locate returns the extent holding a page and the page's slot in it, or a
// nil extent when the ID falls outside the materialized extents.
func (s *Store) locate(id PageID) (*extent, uint32) {
	idx := uint32(id) - 1
	exts := *s.extents.Load()
	if e := int(idx >> s.extShift); id != 0 && e < len(exts) {
		return exts[e], idx & s.extMask
	}
	return nil, 0
}

// page resolves a page ID to its slab slice and reports whether the page is
// live; the slice is nil outside the materialized extents.
func (s *Store) page(id PageID) ([]byte, bool) {
	e, slot := s.locate(id)
	if e == nil {
		return nil, false
	}
	off := int(slot) * s.pageSize
	return e.data[off : off+s.pageSize : off+s.pageSize], e.live[slot>>6].Load()&(1<<(slot&63)) != 0
}

// setLive flips the page's liveness bit. Called only under allocMu; the
// atomic op is still required because readers load bitmap words without it.
func (s *Store) setLive(id PageID, on bool) {
	e, slot := s.locate(id)
	if on {
		e.live[slot>>6].Or(1 << (slot & 63))
	} else {
		e.live[slot>>6].And(^uint64(1 << (slot & 63)))
	}
}

// ensureExtent grows the extent slice (copy-on-append behind the atomic
// pointer) until the page index idx has a slab slot. Caller holds allocMu.
func (s *Store) ensureExtent(idx uint32) {
	need := int(idx>>s.extShift) + 1
	cur := *s.extents.Load()
	if need <= len(cur) {
		return
	}
	grown := make([]*extent, need)
	copy(grown, cur)
	perExt := 1 << s.extShift
	for i := len(cur); i < need; i++ {
		grown[i] = &extent{
			data: make([]byte, perExt*s.pageSize),
			live: make([]atomic.Uint64, (perExt+63)/64),
		}
	}
	s.extents.Store(&grown)
}

// Alloc reserves a new zeroed page and returns its ID. This is GC-free at
// steady state: a recycled free-list slot is cleared in place, and only a
// genuinely fresh high-water-mark page can trigger a new slab extent (whose
// bytes Go already zeroed).
func (s *Store) Alloc() (PageID, error) {
	s.allocMu.Lock()
	defer s.allocMu.Unlock()
	if s.limit > 0 && int(s.live.Load()) >= s.limit {
		return 0, ErrFull
	}
	var id PageID
	recycled := false
	if n := len(s.free); n > 0 {
		id = s.free[n-1]
		s.free = s.free[:n-1]
		recycled = true
	} else {
		id = s.next
		s.next++
	}
	s.ensureExtent(uint32(id) - 1)
	if recycled {
		p, _ := s.page(id)
		clear(p)
	}
	s.setLive(id, true)
	s.live.Add(1)
	s.allocs.Add(1)
	return id, nil
}

// Free releases a page back to the store. The slot goes onto the free-list
// and is recycled by a later Alloc; the bytes stay in the slab, so freeing
// returns no memory to the GC — by design, since the MVCC reclaim sweep
// frees pages exactly when their last pinned reader has drained and the slot
// can be reused immediately.
func (s *Store) Free(id PageID) error {
	s.allocMu.Lock()
	defer s.allocMu.Unlock()
	if _, ok := s.page(id); !ok {
		return fmt.Errorf("pagestore: free of unknown page %d", id)
	}
	s.setLive(id, false)
	s.free = append(s.free, id)
	s.live.Add(-1)
	s.frees.Add(1)
	return nil
}

// View returns the page contents without copying, counting one read I/O.
// The returned slice borrows slab memory directly; it stays valid and
// immutable exactly as long as the page cannot be rewritten or recycled.
// The ownership rule provides that window: pages reachable from a pinned
// MVCC version belong to no live session, so nothing rewrites them (writers
// shadow-copy onto fresh pages), and they are never freed before the
// version's last reader drains. A borrow taken under a version pin is safe
// until the pin is released — view lifetime must not exceed pin lifetime.
// Callers that need the bytes past that window must copy them out.
func (s *Store) View(id PageID) ([]byte, error) {
	p, ok := s.page(id)
	if !ok {
		return nil, fmt.Errorf("pagestore: read of unknown page %d", id)
	}
	s.reads.Add(1)
	return p, nil
}

// write replaces the page contents and counts one write I/O. Short buffers
// are zero-padded; long buffers are an error (a page overflow bug upstream).
// It takes no lock: its only caller, COWSession.Write, has checked that the
// page belongs to the session, so no reader can be looking at it.
func (s *Store) write(id PageID, data []byte) error {
	if len(data) > s.pageSize {
		return fmt.Errorf("pagestore: write of %d bytes exceeds page size %d", len(data), s.pageSize)
	}
	p, ok := s.page(id)
	if !ok {
		return fmt.Errorf("pagestore: write of unknown page %d", id)
	}
	s.writes.Add(1)
	copy(p, data)
	clear(p[len(data):])
	return nil
}

// Stats returns a snapshot of the I/O counters. Under concurrent traffic the
// four counters are read independently (each is internally consistent; the
// snapshot as a whole is approximate, which is fine for metrics).
func (s *Store) Stats() Stats {
	return Stats{
		Reads:  s.reads.Load(),
		Writes: s.writes.Load(),
		Allocs: s.allocs.Load(),
		Frees:  s.frees.Load(),
	}
}

// Live returns the number of currently allocated pages.
func (s *Store) Live() int {
	return int(s.live.Load())
}

// FreeListLen returns the number of freed page slots currently awaiting
// recycling. Together with Live it accounts for every slot below the
// high-water mark: Live() + FreeListLen() + 1 == next ID to be minted fresh.
func (s *Store) FreeListLen() int {
	s.allocMu.Lock()
	defer s.allocMu.Unlock()
	return len(s.free)
}

// ArenaBytes returns the total bytes held in slab extents. Slabs are never
// returned to the GC, so this is the store's resident high-water footprint.
func (s *Store) ArenaBytes() int {
	exts := *s.extents.Load()
	total := 0
	for _, e := range exts {
		total += len(e.data)
	}
	return total
}
