// Package pagestore simulates the disk layer of the paper's testbed: a store
// of fixed-size pages (4 KB in the experiments) with read/write counters.
//
// The paper reports query cost partly as leaf-page I/O (Figs. 9(c), 9(g));
// counting page touches on an in-memory store preserves the orderings and
// ratios between competing indexes without needing a physical disk. All
// disk-resident structures (octree leaf lists, extendible-hash buckets,
// R-tree leaves) allocate their pages here.
//
// Pages live in extent-based slab arenas: large contiguous []byte slabs
// carved into fixed-size pages, with PageID → (extent, offset) resolved by
// arithmetic instead of a map lookup. Freed pages go onto an explicit
// free-list and are recycled on the next Alloc, so steady-state MVCC churn
// allocates nothing and the GC sees a handful of slab pointers instead of
// one heap object per live page.
package pagestore

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// DefaultPageSize is the page size used throughout the experiments (4 KB).
const DefaultPageSize = 4096

// numShards is the lock-striping factor for page-level copy operations.
// Page IDs are assigned sequentially, so id&(numShards-1) spreads
// consecutive pages evenly; a power of two keeps the stripe pick a single
// mask instruction.
const numShards = 16

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
// Bitmap words span lock stripes, so they are only ever touched atomically
// (mutations happen under allocMu; readers load without any lock).
type extent struct {
	data []byte
	live []atomic.Uint64
}

// shard is one stripe of lock state. Copy-based reads and in-place writes
// of the same page serialize on the stripe; different pages mostly hit
// different stripes.
type shard struct {
	mu sync.RWMutex
}

// Store is a page allocator with I/O accounting. It is safe for concurrent
// use. Pages are slots in large slab extents located by pointer arithmetic;
// a liveness bitmap (atomic words) gates access and numShards lock stripes
// serialize copy-based reads against in-place writes of the same page.
// Allocator state (free list, next ID, page limit, extent growth) sits
// behind its own mutex, and the I/O counters are atomics so accounting never
// serializes the read path.
//
// Lock order: allocMu before any shard lock; shard locks are never nested.
type Store struct {
	pageSize int
	shards   [numShards]shard

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

	bufs sync.Pool // *[]byte scratch buffers of pageSize bytes

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
	pp := extentTargetBytes / pageSize
	shift := uint32(0)
	for (1 << (shift + 1)) <= pp {
		shift++
	}
	if 1<<shift < minPagesPerExtent {
		for 1<<shift < minPagesPerExtent {
			shift++
		}
	}
	if 1<<shift > maxPagesPerExtent {
		for 1<<shift > maxPagesPerExtent {
			shift--
		}
	}
	s.extShift = shift
	s.extMask = 1<<shift - 1
	empty := []*extent{}
	s.extents.Store(&empty)
	s.bufs.New = func() any {
		b := make([]byte, pageSize)
		return &b
	}
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

func (s *Store) shardFor(id PageID) *shard {
	return &s.shards[uint32(id)&(numShards-1)]
}

// page resolves an arena page ID to its slab slice without checking
// liveness. The second result is false when the ID falls outside the
// currently materialized extents.
func (s *Store) page(id PageID) ([]byte, bool) {
	idx := uint32(id) - 1
	exts := *s.extents.Load()
	e := int(idx >> s.extShift)
	if id == 0 || e >= len(exts) {
		return nil, false
	}
	off := int(idx&s.extMask) * s.pageSize
	return exts[e].data[off : off+s.pageSize : off+s.pageSize], true
}

// alive reports whether the arena page's liveness bit is set.
func (s *Store) alive(id PageID) bool {
	idx := uint32(id) - 1
	exts := *s.extents.Load()
	e := int(idx >> s.extShift)
	if id == 0 || e >= len(exts) {
		return false
	}
	slot := idx & s.extMask
	return exts[e].live[slot>>6].Load()&(1<<(slot&63)) != 0
}

// setLive flips the arena page's liveness bit. Called only under allocMu;
// the atomic op is still required because bitmap words are shared with
// lock-free readers.
func (s *Store) setLive(id PageID, on bool) {
	idx := uint32(id) - 1
	exts := *s.extents.Load()
	e := int(idx >> s.extShift)
	slot := idx & s.extMask
	word := &exts[e].live[slot>>6]
	if on {
		word.Or(1 << (slot & 63))
	} else {
		word.And(^uint64(1 << (slot & 63)))
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

// AcquirePage hands out a page-sized scratch buffer from the store's pool.
// Pair with ReleasePage on every path; the contents are arbitrary leftovers
// from the previous user.
func (s *Store) AcquirePage() *[]byte {
	return s.bufs.Get().(*[]byte)
}

// ReleasePage returns a buffer obtained from AcquirePage to the pool.
// Buffers of the wrong size are dropped rather than poisoning the pool.
func (s *Store) ReleasePage(p *[]byte) {
	if p == nil || len(*p) != s.pageSize {
		return
	}
	s.bufs.Put(p)
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
	if !s.alive(id) {
		return fmt.Errorf("pagestore: free of unknown page %d", id)
	}
	s.setLive(id, false)
	s.free = append(s.free, id)
	s.live.Add(-1)
	s.frees.Add(1)
	return nil
}

// Read copies the page contents into a fresh buffer and counts one read I/O.
// Concurrent reads proceed in parallel; reads of pages in different stripes
// don't even share a lock. Hot paths that can reuse a buffer should prefer
// ReadInto (no allocation) or View (no copy at all).
func (s *Store) Read(id PageID) ([]byte, error) {
	buf := make([]byte, s.pageSize)
	if err := s.ReadInto(id, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// ReadInto copies the page contents into dst, which must hold at least one
// page, and counts one read I/O. It performs no allocation — combined with
// AcquirePage/ReleasePage this is the zero-garbage copying read path.
func (s *Store) ReadInto(id PageID, dst []byte) error {
	if len(dst) < s.pageSize {
		return fmt.Errorf("pagestore: ReadInto buffer of %d bytes, page size is %d", len(dst), s.pageSize)
	}
	sh := s.shardFor(id)
	sh.mu.RLock()
	if !s.alive(id) {
		sh.mu.RUnlock()
		return fmt.Errorf("pagestore: read of unknown page %d", id)
	}
	p, _ := s.page(id)
	copy(dst, p)
	sh.mu.RUnlock()
	s.reads.Add(1)
	return nil
}

// View returns the page contents without copying, counting one read I/O.
// The returned slice borrows slab memory directly; it stays valid and
// immutable exactly as long as the page cannot be rewritten or recycled.
// The COW shadow-paging invariant provides that window: pages reachable
// from a pinned MVCC version are never rewritten in place (writers
// shadow-copy onto fresh pages) and never freed before the version's last
// reader drains, so a borrow taken under a version pin is safe until the pin
// is released — view lifetime must not exceed pin lifetime. Callers that
// need the bytes past that window must copy them out.
func (s *Store) View(id PageID) ([]byte, error) {
	if !s.alive(id) {
		return nil, fmt.Errorf("pagestore: read of unknown page %d", id)
	}
	p, _ := s.page(id)
	s.reads.Add(1)
	return p, nil
}

// Write replaces the page contents and counts one write I/O. Short buffers
// are zero-padded; long buffers are an error (a page overflow bug upstream).
func (s *Store) Write(id PageID, data []byte) error {
	if len(data) > s.pageSize {
		return fmt.Errorf("pagestore: write of %d bytes exceeds page size %d", len(data), s.pageSize)
	}
	sh := s.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if !s.alive(id) {
		return fmt.Errorf("pagestore: write of unknown page %d", id)
	}
	p, _ := s.page(id)
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
