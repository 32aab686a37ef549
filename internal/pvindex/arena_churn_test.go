package pvindex

import (
	"bytes"
	"hash/fnv"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pvoronoi/internal/geom"
	"pvoronoi/internal/pagestore"
	"pvoronoi/internal/uncertain"
)

// versionPages returns every page ID reachable from the pinned version: the
// octree leaf chains.
func versionPages(t *testing.T, p *version) []pagestore.PageID {
	t.Helper()
	pages, err := p.primary.CollectPages(nil)
	if err != nil {
		t.Fatal(err)
	}
	return pages
}

// churnObject builds a small uncertain object in-domain for churn batches.
func churnObject(rng *rand.Rand, id int) *uncertain.Object {
	lo := geom.Point{rng.Float64() * 9900, rng.Float64() * 9900, rng.Float64() * 9900}
	return &uncertain.Object{
		ID:     uncertain.ID(id),
		Region: geom.NewRect(lo, geom.Point{lo[0] + 40, lo[1] + 40, lo[2] + 40}),
	}
}

// waitEpochAdvance blocks until the published epoch moves delta past from
// (the background writer keeps publishing), failing after a generous bound.
func waitEpochAdvance(t *testing.T, ix *Index, from uint64, delta uint64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for ix.Epoch() < from+delta {
		if time.Now().After(deadline) {
			t.Fatalf("epoch stuck at %d (wanted %d)", ix.Epoch(), from+delta)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestArenaRecyclingPinnedViewsStable is the use-after-free detector for the
// arena free-list: a reader pins an old version and records every reachable
// page's borrowed view, a writer storms insert/delete batches (churning
// shadow copies, frees, and — once an older pin drains — free-list
// recycling), and the pinned reader's views must stay byte-identical
// throughout. Any rewrite-in-place of a shared page, or recycling of a page
// still reachable from a pinned version, changes the borrowed bytes and
// fails the test (and trips -race via the concurrent writer).
func TestArenaRecyclingPinnedViewsStable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	db := randomDB(rng, 300, 3, 10000, 40, true)
	ix, err := Build(db, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// A failed check still stops and waits for the goroutines, so none of
	// them allocates inside a later test's measurement.
	finish := sync.OnceFunc(func() { close(stop); wg.Wait() })
	defer finish()
	// Writer: alternately insert and delete a block of fresh IDs, so every
	// round shadow-copies leaf/bucket pages and frees the block's value
	// chains — a steady stream of deferred frees for the reclaimer.
	wg.Add(1)
	go func() {
		defer wg.Done()
		wrng := rand.New(rand.NewSource(7))
		next := 100000
		for {
			select {
			case <-stop:
				return
			default:
			}
			block := make([]int, 8)
			for j := range block {
				block[j] = next
				next++
				if _, err := ix.Insert(churnObject(wrng, block[j])); err != nil {
					t.Error(err)
					return
				}
			}
			for _, id := range block {
				if _, err := ix.Delete(uncertain.ID(id)); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	// Concurrent readers keep the View-based query paths hot under -race.
	wg.Add(2)
	for r := 0; r < 2; r++ {
		go func(seed int64) {
			defer wg.Done()
			qrng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				q := geom.Point{qrng.Float64() * 10000, qrng.Float64() * 10000, qrng.Float64() * 10000}
				if _, err := ix.Snapshot(q); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(100 + r))
	}

	capture := func(p *version) (ids []pagestore.PageID, snaps [][]byte) {
		ids = versionPages(t, p)
		snaps = make([][]byte, len(ids))
		for i, id := range ids {
			v, err := ix.store.View(id)
			if err != nil {
				t.Fatalf("View(%d): %v", id, err)
			}
			snaps[i] = append([]byte(nil), v...)
		}
		return ids, snaps
	}
	verify := func(ids []pagestore.PageID, snaps [][]byte, when string) {
		for i, id := range ids {
			v, err := ix.store.View(id)
			if err != nil {
				t.Fatalf("%s: pinned page %d vanished: %v", when, id, err)
			}
			if !bytes.Equal(v, snaps[i]) {
				t.Fatalf("%s: pinned page %d mutated under the reader", when, id)
			}
		}
	}

	for round := 0; round < 3; round++ {
		pinOld := ix.pin()
		oldIDs, oldSnaps := capture(pinOld)
		// Writer churns while pinOld blocks the reclaim queue: shared pages
		// must not be rewritten in place.
		waitEpochAdvance(t, ix, pinOld.epoch, 4)
		verify(oldIDs, oldSnaps, "while oldest pin held")

		// Take a newer pin, then drain the old one: everything between the
		// two reclaims, the free-list refills, and the storming writer
		// recycles those slots — all while the new pin's views are held.
		pinNew := ix.pin()
		newIDs, newSnaps := capture(pinNew)
		reclaimedBefore := ix.MVCC().Reclaimed
		freesBefore := ix.store.Stats().Frees
		ix.unpin(pinOld)
		// A reader goroutine may still pin pinOld's version (it pinned it
		// while it was current); the last unpin reclaims it. Once it has,
		// the writer recycles the freed slots for four more epochs.
		waitReclaimed(t, ix, reclaimedBefore)
		waitEpochAdvance(t, ix, ix.Epoch(), 4)
		verify(newIDs, newSnaps, "across free-list recycling")
		if ix.store.Stats().Frees <= freesBefore {
			t.Fatal("no pages freed after releasing the oldest pin")
		}
		ix.unpin(pinNew)
	}
}

// waitReclaimed blocks until ix has reclaimed a version more than before,
// failing after a generous bound: "no version reclaimed after releasing the
// oldest pin — churn did not exercise recycling".
func waitReclaimed(t *testing.T, ix *Index, before int64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for ix.MVCC().Reclaimed <= before {
		if time.Now().After(deadline) {
			t.Fatal("no version reclaimed after releasing the oldest pin — churn did not exercise recycling")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestArenaAccountingMatchesMapBaseline drives the page store through a
// build + batch sequence and checks the allocator accounting: reclaimed pages
// really return to the free-list, and live + free-list covers every slot
// below the high-water mark.
func TestArenaAccountingMatchesMapBaseline(t *testing.T) {
	arena := pagestore.New(pagestore.DefaultPageSize)
	rng := rand.New(rand.NewSource(5))
	db := randomDB(rng, 200, 3, 10000, 40, true)
	cfg := DefaultConfig()
	cfg.Store = arena
	ix, err := Build(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wrng := rand.New(rand.NewSource(9))
	for i := 0; i < 30; i++ {
		id := 50000 + i
		if _, err := ix.Insert(churnObject(wrng, id)); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			if _, err := ix.Delete(uncertain.ID(id)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// No pins are held, so every retired version reclaims on publish;
	// wait out the async drain sweeps all the same.
	deadline := time.Now().Add(10 * time.Second)
	for ix.MVCC().LiveVersions > 1 {
		if time.Now().After(deadline) {
			t.Fatalf("versions never drained: %+v", ix.MVCC())
		}
		time.Sleep(time.Millisecond)
	}

	// Frees really return to the free-list: live pages account for exactly
	// the alloc/free delta, so every freed slot is parked for recycling
	// rather than leaked.
	as := arena.Stats()
	if int64(arena.Live()) != as.Allocs-as.Frees {
		t.Fatalf("live %d != allocs-frees %d", arena.Live(), as.Allocs-as.Frees)
	}
	if arena.FreeListLen() == 0 {
		t.Fatal("churn with deletes left an empty free-list — nothing was ever reclaimed")
	}
	if arena.ArenaBytes() == 0 {
		t.Fatal("arena store reports no slab memory")
	}
	// Drain the free-list; the first fresh ID after it must sit exactly one
	// past the slots live and free accounted for.
	wantFresh := pagestore.PageID(arena.Live() + arena.FreeListLen() + 1)
	for arena.FreeListLen() > 0 {
		if id, err := arena.Alloc(); err != nil || id >= wantFresh {
			t.Fatalf("recycled Alloc = %d, %v; want an ID below %d", id, err, wantFresh)
		}
	}
	if id, err := arena.Alloc(); err != nil || id != wantFresh {
		t.Fatalf("first fresh Alloc = %d, %v; want %d", id, err, wantFresh)
	}
}

// TestPinnedPagesUnchangedUnderWritesAndSaves holds the page store's
// ownership rule end to end: readers pin a version and hash every page
// CollectPages lists, through View, at pin time and again just before they
// unpin, while a writer applies insert and delete batches and a saver runs
// SaveTo over and over. The two
// hashes must match every time; under -race a write to any page a published
// version reaches is also reported as a race.
func TestPinnedPagesUnchangedUnderWritesAndSaves(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	db := randomDB(rng, 300, 2, 10000, 40, true)
	ix, err := Build(db, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	hash := func(v *version) (uint64, error) {
		pages, err := v.primary.CollectPages(nil)
		if err != nil {
			return 0, err
		}
		h := fnv.New64a()
		for _, id := range pages {
			p, err := ix.store.View(id)
			if err != nil {
				return 0, err
			}
			h.Write(p)
		}
		return h.Sum64(), nil
	}

	stop := make(chan struct{})
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}
	var wg sync.WaitGroup
	finish := sync.OnceFunc(func() { close(stop); wg.Wait() })
	defer finish() // a failed batch still stops and waits for the goroutines
	var saves, checks atomic.Int64
	wg.Add(1)
	go func() { // saver
		defer wg.Done()
		for !stopped() {
			if err := ix.SaveTo(io.Discard); err != nil {
				t.Error(err)
				return
			}
			saves.Add(1)
		}
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() { // reader
			defer wg.Done()
			for !stopped() {
				v := ix.pin()
				before, err := hash(v)
				// Hold the pin until the writer publishes past it (or stops).
				for ix.Epoch() == v.epoch && !stopped() {
					time.Sleep(100 * time.Microsecond)
				}
				after, err2 := hash(v)
				ix.unpin(v)
				if err != nil || err2 != nil {
					t.Error(err, err2)
					return
				}
				if before != after {
					t.Errorf("pages of pinned epoch %d changed under the reader", v.epoch)
					return
				}
				checks.Add(1)
			}
		}()
	}

	wrng := rand.New(rand.NewSource(9))
	for round := 0; round < 10; round++ {
		ups := make([]Update, 8)
		for i := range ups {
			lo := geom.Point{wrng.Float64() * 9900, wrng.Float64() * 9900}
			region := geom.NewRect(lo, geom.Point{lo[0] + 40, lo[1] + 40})
			ups[i] = Update{Op: OpInsert, Object: &uncertain.Object{ID: uncertain.ID(100000 + 8*round + i), Region: region,
				Instances: uncertain.SampleInstances(region, uncertain.PDFUniform, 40, wrng)}}
		}
		if _, err := ix.ApplyBatch(ups); err != nil {
			t.Fatal(err)
		}
		for i := range ups { // built objects on even rounds, last round's inserts on odd ones
			ups[i] = Update{Op: OpDelete, ID: uncertain.ID(4*round + i)}
			if round%2 == 1 {
				ups[i].ID = uncertain.ID(100000 + 8*(round-1) + i)
			}
		}
		if _, err := ix.ApplyBatch(ups); err != nil {
			t.Fatal(err)
		}
	}
	finish()
	if saves.Load() == 0 || checks.Load() == 0 {
		t.Fatalf("%d saves and %d pinned checks overlapped the writes", saves.Load(), checks.Load())
	}
	t.Logf("%d saves, %d pinned checks", saves.Load(), checks.Load())
}
