package pagestore

import (
	"bytes"
	"fmt"
	"testing"
)

// TestViewBorrowsArenaMemory checks the zero-copy contract: a View aliases
// slab memory (the owning session's write shows up in the borrowed slice).
func TestViewBorrowsArenaMemory(t *testing.T) {
	s := New(128)
	sess := NewFullSession(s)
	id, err := s.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Write(id, []byte("before")); err != nil {
		t.Fatal(err)
	}
	v, err := s.View(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 128 {
		t.Fatalf("view length %d, want page size 128", len(v))
	}
	if !bytes.Equal(v[:6], []byte("before")) {
		t.Fatalf("view contents %q", v[:6])
	}
	if err := sess.Write(id, []byte("after!")); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v[:6], []byte("after!")) {
		t.Fatalf("arena view did not alias slab memory: %q", v[:6])
	}
}

// TestViewErrors checks View rejects freed and never-allocated pages.
func TestViewErrors(t *testing.T) {
	s := New(64)
	id, _ := s.Alloc()
	if err := s.Free(id); err != nil {
		t.Fatal(err)
	}
	if _, err := s.View(id); err == nil {
		t.Fatal("View of freed page succeeded")
	}
	if _, err := s.View(9999); err == nil {
		t.Fatal("View of unallocated page succeeded")
	}
	if _, err := s.View(0); err == nil {
		t.Fatal("View of page 0 succeeded")
	}
}

// TestArenaExtentGrowth allocates past several extent boundaries and checks
// every page keeps independent contents and earlier views stay valid (slabs
// must never move when the extent slice grows).
func TestArenaExtentGrowth(t *testing.T) {
	s := New(4096) // 1024 pages per extent at the 4 MB target
	perExt := 1 << s.extShift
	n := perExt*2 + perExt/2
	ids := make([]PageID, 0, n)
	for i := 0; i < n; i++ {
		id, err := s.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	firstView, err := s.View(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	sess := NewFullSession(s)
	if err := sess.Write(ids[0], []byte("pinned-first-page")); err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		if err := sess.Write(id, fmt.Appendf(nil, "page-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for i, id := range ids {
		v, err := s.View(id)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("page-%d", i)
		if string(v[:len(want)]) != want {
			t.Fatalf("page %d: got %q want %q", id, v[:len(want)], want)
		}
	}
	if string(firstView[:6]) != "page-0" {
		t.Fatalf("view taken before extent growth went stale: %q", firstView[:6])
	}
	if got := s.ArenaBytes(); got != 3*perExt*4096 {
		t.Fatalf("ArenaBytes = %d, want %d", got, 3*perExt*4096)
	}
}

// TestArenaRecycleZeroes frees a dirtied page and checks the recycled slot
// comes back zeroed, LIFO, with accounting intact.
func TestArenaRecycleZeroes(t *testing.T) {
	s := New(64)
	a, _ := s.Alloc()
	b, _ := s.Alloc()
	if err := NewFullSession(s).Write(b, bytes.Repeat([]byte{0xAB}, 64)); err != nil {
		t.Fatal(err)
	}
	if err := s.Free(b); err != nil {
		t.Fatal(err)
	}
	if got := s.FreeListLen(); got != 1 {
		t.Fatalf("FreeListLen = %d, want 1", got)
	}
	c, err := s.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if c != b {
		t.Fatalf("recycled ID %d, want LIFO reuse of %d", c, b)
	}
	v, err := s.View(c)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range v {
		if x != 0 {
			t.Fatalf("recycled page byte %d = %#x, want 0", i, x)
		}
	}
	if got := s.FreeListLen(); got != 0 {
		t.Fatalf("FreeListLen after recycle = %d, want 0", got)
	}
	if s.Live() != 2 {
		t.Fatalf("Live = %d, want 2", s.Live())
	}
	_ = a
}

// pager is what TestArenaMapParity's script needs of a page store.
type pager interface {
	Alloc() (PageID, error)
	Free(PageID) error
	Read(PageID) ([]byte, error)
	Write(PageID, []byte) error
}

// arenaPager drives the arena through its public surface: writes through a
// full session, reads through View plus a copy.
type arenaPager struct {
	*Store
	sess *COWSession
}

func (a arenaPager) Read(id PageID) ([]byte, error) {
	p, err := a.View(id)
	return bytes.Clone(p), err
}

func (a arenaPager) Write(id PageID, data []byte) error { return a.sess.Write(id, data) }

// TestArenaMapParity drives the arena and the map reference model
// (reference_test.go) through an identical alloc/write/free/read script and
// checks IDs, contents, errors, and accounting stay byte-for-byte identical.
func TestArenaMapParity(t *testing.T) {
	arena := New(96)
	mapped := newMapStore(96)

	step := func(f func(s pager) (PageID, []byte, error)) {
		id0, b0, err0 := f(arenaPager{arena, NewFullSession(arena)})
		id1, b1, err1 := f(mapped)
		if id0 != id1 || (err0 == nil) != (err1 == nil) || !bytes.Equal(b0, b1) {
			t.Fatalf("backends diverged: arena (%d,%q,%v) vs map (%d,%q,%v)", id0, b0, err0, id1, b1, err1)
		}
	}
	// Deterministic mixed script: allocate 40, free every third, reallocate
	// 10, rewriting and reading as we go.
	for i := 0; i < 40; i++ {
		step(func(s pager) (PageID, []byte, error) {
			id, err := s.Alloc()
			if err != nil {
				return 0, nil, err
			}
			data := fmt.Appendf(nil, "obj-%d", i)
			if err := s.Write(id, data); err != nil {
				return id, nil, err
			}
			b, err := s.Read(id)
			return id, b, err
		})
	}
	for id := PageID(1); id <= 40; id += 3 {
		step(func(s pager) (PageID, []byte, error) {
			return id, nil, s.Free(id)
		})
	}
	// Page 1 is free now: a second free, a read and a write must all fail.
	step(func(s pager) (PageID, []byte, error) { return 1, nil, s.Free(1) })
	step(func(s pager) (PageID, []byte, error) { b, err := s.Read(1); return 1, b, err })
	step(func(s pager) (PageID, []byte, error) { return 1, nil, s.Write(1, []byte("x")) })
	for i := 0; i < 10; i++ {
		step(func(s pager) (PageID, []byte, error) {
			id, err := s.Alloc()
			if err != nil {
				return 0, nil, err
			}
			b, err := s.Read(id)
			return id, b, err
		})
	}
	if arena.Live() != mapped.Live() {
		t.Fatalf("live divergence: arena %d, map %d", arena.Live(), mapped.Live())
	}
	if arena.FreeListLen() != mapped.FreeListLen() {
		t.Fatalf("free-list divergence: arena %d, map %d", arena.FreeListLen(), mapped.FreeListLen())
	}
	as, ms := arena.Stats(), mapped.Stats()
	if as != ms {
		t.Fatalf("stats divergence: arena %+v, map %+v", as, ms)
	}
}

// TestImageRoundTripAcrossBackends snapshots the pages a caller kept and
// restores the image, checking pages, allocator state, and the gob format's
// header fields.
func TestImageRoundTripAcrossBackends(t *testing.T) {
	t.Run("arena", func(t *testing.T) {
		s := New(80)
		sess := NewFullSession(s)
		var kept []PageID
		for i := 0; i < 12; i++ {
			id, err := s.Alloc()
			if err != nil {
				t.Fatal(err)
			}
			if err := sess.Write(id, fmt.Appendf(nil, "v-%d", i)); err != nil {
				t.Fatal(err)
			}
			if i%4 == 2 {
				if err := s.Free(id); err != nil {
					t.Fatal(err)
				}
				continue
			}
			kept = append(kept, id)
		}
		img, err := s.ImageOf(kept)
		if err != nil {
			t.Fatal(err)
		}
		if img.PageSize != 80 || len(img.Pages) != s.Live() {
			t.Fatalf("image header mismatch: %+v live=%d", img, s.Live())
		}
		r, err := FromImage(img)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range kept {
			want, err := s.View(id)
			if err != nil {
				t.Fatal(err)
			}
			got, err := r.View(id)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("page %d mismatch after round trip", id)
			}
		}
		if r.Live() != s.Live() || r.FreeListLen() != s.FreeListLen() {
			t.Fatalf("allocator state mismatch: live %d/%d free %d/%d",
				r.Live(), s.Live(), r.FreeListLen(), s.FreeListLen())
		}
		// The restored allocator must recycle the same IDs.
		a1, _ := s.Alloc()
		a2, _ := r.Alloc()
		if a1 != a2 {
			t.Fatalf("restored allocator minted %d, original %d", a2, a1)
		}
	})
}
