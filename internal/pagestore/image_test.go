package pagestore

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"pvoronoi/internal/race"
)

func TestStoreImageRoundTrip(t *testing.T) {
	s := New(64)
	sess := NewFullSession(s)
	id1, _ := s.Alloc()
	id2, _ := s.Alloc()
	id3, _ := s.Alloc()
	_ = sess.Write(id1, []byte("one"))
	_ = sess.Write(id2, []byte("two"))
	_ = s.Free(id3) // exercise the free list

	img, err := s.ImageOf([]PageID{id1, id2})
	if err != nil {
		t.Fatal(err)
	}
	restored, err := FromImage(img)
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range []struct {
		id   PageID
		want string
	}{{id1, "one"}, {id2, "two"}} {
		got, err := restored.View(pair.id)
		if err != nil || !bytes.Equal(got[:len(pair.want)], []byte(pair.want)) {
			t.Fatalf("page %d: %q %v", pair.id, got[:len(pair.want)], err)
		}
	}
	// Freed page stays freed; allocation reuses it.
	if _, err := restored.View(id3); err == nil {
		t.Fatal("freed page readable after restore")
	}
	id4, err := restored.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if id4 != id3 {
		t.Fatalf("free list not restored: got %d want %d", id4, id3)
	}
	// The image borrows the captured pages; the restored store holds copies
	// of its own, so writing it leaves the image and the original alone.
	if orig, _ := s.View(id1); &pageOf(img, id1)[0] != &orig[0] {
		t.Fatal("ImageOf copied a page instead of borrowing it")
	}
	if err := NewFullSession(restored).Write(id1, []byte("mutated")); err != nil {
		t.Fatal(err)
	}
	for _, got := range [][]byte{pageOf(img, id1), must(s.View(id1))} {
		if !bytes.Equal(got[:3], []byte("one")) {
			t.Fatal("restored store aliases the image's pages")
		}
	}
}

// pageOf returns page id's bytes in img, nil when it holds none.
func pageOf(img *Image, id PageID) []byte {
	for _, p := range img.Pages {
		if p.ID == uint32(id) {
			return p.Data
		}
	}
	return nil
}

func must(p []byte, err error) []byte {
	if err != nil {
		panic(err)
	}
	return p
}

// TestImageOfAllocBudget holds a capture to its bookkeeping: ImageOf lends
// each page's slab slice, so capturing n pages allocates the page map and
// the free list, far less than the n page copies it used to make.
func TestImageOfAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation budget is meaningless under the race detector")
	}
	const n = 512
	s := New(DefaultPageSize)
	ids := make([]PageID, 0, n)
	for i := 0; i < 2*n; i++ {
		id, err := s.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			ids = append(ids, id) // every other page, so the free list fills too
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	img, err := s.ImageOf(ids)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(img.Pages) != n {
		t.Fatalf("captured %d pages, want %d", len(img.Pages), n)
	}
	got := after.TotalAlloc - before.TotalAlloc
	if budget := uint64(n * DefaultPageSize / 16); got > budget {
		t.Fatalf("ImageOf of %d pages allocated %d bytes, budget %d (%d bytes of page copies)",
			n, got, budget, n*DefaultPageSize)
	}
	t.Logf("ImageOf of %d pages allocated %d bytes", n, got)
}

func TestFromImageValidation(t *testing.T) {
	page := func() []byte { return make([]byte, 64) }
	for _, tc := range []struct {
		name string
		img  Image
		want string // must appear in the error: the offending value, named
	}{
		{"zero page size", Image{PageSize: 0, Next: 1}, "page size 0"},
		{"pages out of order", Image{PageSize: 64, Next: 3, Pages: []Page{{2, page()}, {1, page()}}}, "page 1 listed after page 2"},
		{"short page", Image{PageSize: 64, Next: 2, Pages: []Page{{1, make([]byte, 32)}}}, "page 1 has 32 bytes"},
		{"zero high-water mark", Image{PageSize: 64}, "high-water mark is 0"},
		{"page at high-water mark", Image{PageSize: 64, Next: 3, Pages: []Page{{1, page()}, {7, page()}}}, "page 7 outside"},
		{"page zero", Image{PageSize: 64, Next: 3, Pages: []Page{{0, page()}, {1, page()}}}, "page 0 outside"},
		{"free slot beyond high-water mark", Image{PageSize: 64, Next: 3, Free: []uint32{99999}, Pages: []Page{{1, page()}}}, "free slot 99999 outside"},
		{"free slot zero", Image{PageSize: 64, Next: 3, Free: []uint32{0}, Pages: []Page{{1, page()}}}, "free slot 0 outside"},
		{"free slot is a stored page", Image{PageSize: 64, Next: 3, Free: []uint32{1}, Pages: []Page{{1, page()}}}, "page 1 is both"},
		{"duplicate free slot", Image{PageSize: 64, Next: 4, Free: []uint32{2, 2}, Pages: []Page{{1, page()}}}, "page 2 is on the free list twice"},
		{"slots unaccounted for", Image{PageSize: 64, Next: 5, Free: []uint32{2}, Pages: []Page{{1, page()}}}, "1 pages and 1 free slots"},
		{"four-entry free list under a two-slot mark", Image{PageSize: 64, Next: 3, Free: []uint32{1, 1, 0, 99999}, Pages: []Page{{1, page()}}}, "4 free slots"},
	} {
		if _, err := FromImage(&tc.img); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}
