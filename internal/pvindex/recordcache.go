package pvindex

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// DefaultRecordCacheSize is the record cache's default capacity in entries.
// At the paper's 500-instance pdfs (≈16 KB decoded at d=3) the default keeps
// at most ~64 MB of hot records — small next to the simulated disk, large
// enough that a steady query mix over a hot region serves Step 2 from memory.
const DefaultRecordCacheSize = 4096

// rcShards is the cache's lock-striping factor (power of two). Like the
// page store, the cache sits on the concurrent read path: per-candidate
// lookups from parallel Snapshot readers must not funnel through one mutex
// (LRU promotion needs exclusive access even on a hit).
const rcShards = 8

// recordCache is a bounded LRU of object ID → decoded secondary-index
// record, striped into rcShards independently locked shards (ID → shard by
// low bits; capacity divided evenly). It sits under the index's read path:
// Snapshot's per-candidate secondary.Get + decodeRecord becomes a map hit
// for warm objects, skipping both the page-chain I/O and the per-record
// decode allocations.
//
// Consistency contract (generation tagging): the cache is shared by readers
// pinned to different MVCC versions, so entries cannot simply be
// invalidated on write — an older snapshot must keep missing (and must not
// poison the cache for newer ones). Each entry carries the epoch of the
// version it was decoded from, and a per-shard generation table remembers
// the epoch at which each record was last rewritten (bumped by the writer
// before the new version is published). A lookup from a version at epoch E
// hits only when both the entry's epoch and E are at or beyond the record's
// last modification — i.e. when the cached bytes provably equal what E's
// own secondary index stores. Fills from superseded versions are dropped
// rather than cached. The generation table is pruned as old versions
// reclaim: once no pinnable version predates a modification, its tag can be
// forgotten.
//
// Cached records are shared: callers must treat every slice reachable from a
// returned record (UBR, region, instances) as immutable.
type recordCache struct {
	shards [rcShards]rcShard

	hits, misses atomic.Int64
}

type rcShard struct {
	mu  sync.Mutex
	cap int
	lru *list.List // front = most recent; values are *rcEntry
	m   map[uint32]*list.Element
	// modGen maps a record ID to the epoch of its latest rewrite. Absent
	// means "never modified since the oldest live version" (gen 0).
	modGen map[uint32]uint64
}

type rcEntry struct {
	id  uint32
	gen uint64 // epoch of the version the record was decoded from
	rec record
}

// newRecordCache returns a cache with the given total capacity in entries.
// capacity == 0 selects DefaultRecordCacheSize; capacity < 0 disables the
// cache entirely (the returned nil cache misses on every lookup).
func newRecordCache(capacity int) *recordCache {
	if capacity < 0 {
		return nil
	}
	if capacity == 0 {
		capacity = DefaultRecordCacheSize
	}
	perShard := (capacity + rcShards - 1) / rcShards
	if perShard < 1 {
		perShard = 1
	}
	c := &recordCache{}
	for i := range c.shards {
		c.shards[i] = rcShard{
			cap:    perShard,
			lru:    list.New(),
			m:      make(map[uint32]*list.Element, perShard),
			modGen: make(map[uint32]uint64),
		}
	}
	return c
}

func (c *recordCache) shardFor(id uint32) *rcShard {
	return &c.shards[id&(rcShards-1)]
}

// get returns the cached record for id as seen by a version at the given
// epoch, promoting it to most-recently-used within its shard. It misses when
// the record was rewritten after the entry was cached or after the reader's
// version — either way the cached bytes are not the reader's truth.
func (c *recordCache) get(id uint32, epoch uint64) (record, bool) {
	if c == nil {
		return record{}, false
	}
	sh := c.shardFor(id)
	sh.mu.Lock()
	el, ok := sh.m[id]
	if ok {
		if m := sh.modGen[id]; m > 0 {
			e := el.Value.(*rcEntry)
			if e.gen < m || epoch < m {
				ok = false
			}
		}
	}
	if !ok {
		sh.mu.Unlock()
		c.misses.Add(1)
		return record{}, false
	}
	sh.lru.MoveToFront(el)
	rec := el.Value.(*rcEntry).rec
	sh.mu.Unlock()
	c.hits.Add(1)
	return rec, true
}

// put caches the record as decoded from a version at the given epoch,
// evicting from the shard's LRU tail at capacity. Fills whose version
// predates the record's latest rewrite are dropped (they would never be
// served), and an entry from a newer version is never overwritten by an
// older fill.
func (c *recordCache) put(id uint32, rec record, epoch uint64) {
	if c == nil {
		return
	}
	sh := c.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if epoch < sh.modGen[id] {
		return
	}
	if el, ok := sh.m[id]; ok {
		e := el.Value.(*rcEntry)
		if e.gen <= epoch {
			e.rec = rec
			e.gen = epoch
		}
		sh.lru.MoveToFront(el)
		return
	}
	for sh.lru.Len() >= sh.cap {
		back := sh.lru.Back()
		sh.lru.Remove(back)
		delete(sh.m, back.Value.(*rcEntry).id)
	}
	sh.m[id] = sh.lru.PushFront(&rcEntry{id: id, gen: epoch, rec: rec})
}

// bumpGen records that id's stored record was rewritten by the version at
// the given epoch. Called by the writer for every touched ID before the new
// version publishes, so no reader can cache the old bytes under a passing
// generation. The now-superseded entry is dropped eagerly.
func (c *recordCache) bumpGen(id uint32, epoch uint64) {
	if c == nil {
		return
	}
	sh := c.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.modGen[id] = epoch
	if el, ok := sh.m[id]; ok && el.Value.(*rcEntry).gen < epoch {
		sh.lru.Remove(el)
		delete(sh.m, id)
	}
}

// pruneGen forgets modification tags at or below the oldest pinnable epoch:
// every future lookup and fill comes from a version at or beyond it, so the
// tag can no longer fail a validity check. Keeps the generation table
// bounded by the recently-modified ID set instead of growing forever.
func (c *recordCache) pruneGen(minLive uint64) {
	if c == nil {
		return
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for id, m := range sh.modGen {
			if m <= minLive {
				delete(sh.modGen, id)
			}
		}
		sh.mu.Unlock()
	}
}

// RecordCacheStats reports the decoded-record cache's effectiveness.
type RecordCacheStats struct {
	Hits     int64
	Misses   int64
	Resident int // entries currently cached
	Capacity int // maximum entries (0 when the cache is disabled)
	// GenTracked counts IDs with a live modification tag — records
	// rewritten after the oldest pinnable version.
	GenTracked int
}

// stats returns a snapshot of the cache counters (shard totals).
func (c *recordCache) stats() RecordCacheStats {
	if c == nil {
		return RecordCacheStats{}
	}
	st := RecordCacheStats{
		Hits:   c.hits.Load(),
		Misses: c.misses.Load(),
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		st.Resident += sh.lru.Len()
		st.Capacity += sh.cap
		st.GenTracked += len(sh.modGen)
		sh.mu.Unlock()
	}
	return st
}
