package pagestore

import (
	"bytes"
	"strings"
	"testing"
)

func TestStoreImageRoundTrip(t *testing.T) {
	s := New(64)
	id1, _ := s.Alloc()
	id2, _ := s.Alloc()
	id3, _ := s.Alloc()
	_ = s.Write(id1, []byte("one"))
	_ = s.Write(id2, []byte("two"))
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
		got, err := restored.Read(pair.id)
		if err != nil || !bytes.Equal(got[:len(pair.want)], []byte(pair.want)) {
			t.Fatalf("page %d: %q %v", pair.id, got[:len(pair.want)], err)
		}
	}
	// Freed page stays freed; allocation reuses it.
	if _, err := restored.Read(id3); err == nil {
		t.Fatal("freed page readable after restore")
	}
	id4, err := restored.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if id4 != id3 {
		t.Fatalf("free list not restored: got %d want %d", id4, id3)
	}
	// The image is a deep copy: mutating the original store afterwards must
	// not affect a restore from the same image.
	_ = s.Write(id1, []byte("mutated"))
	restored2, _ := FromImage(img)
	got, _ := restored2.Read(id1)
	if !bytes.Equal(got[:3], []byte("one")) {
		t.Fatal("image aliases live store pages")
	}
}

func TestFromImageValidation(t *testing.T) {
	page := func() []byte { return make([]byte, 64) }
	for _, tc := range []struct {
		name string
		img  Image
		want string // must appear in the error: the offending value, named
	}{
		{"zero page size", Image{PageSize: 0, Next: 1}, "page size 0"},
		{"short page", Image{PageSize: 64, Next: 2, Pages: map[uint32][]byte{1: make([]byte, 32)}}, "page 1 has 32 bytes"},
		{"zero high-water mark", Image{PageSize: 64}, "high-water mark is 0"},
		{"page at high-water mark", Image{PageSize: 64, Next: 3, Pages: map[uint32][]byte{1: page(), 7: page()}}, "page 7 outside"},
		{"page zero", Image{PageSize: 64, Next: 3, Pages: map[uint32][]byte{0: page(), 1: page()}}, "page 0 outside"},
		{"free slot beyond high-water mark", Image{PageSize: 64, Next: 3, Free: []uint32{99999}, Pages: map[uint32][]byte{1: page()}}, "free slot 99999 outside"},
		{"free slot zero", Image{PageSize: 64, Next: 3, Free: []uint32{0}, Pages: map[uint32][]byte{1: page()}}, "free slot 0 outside"},
		{"free slot is a stored page", Image{PageSize: 64, Next: 3, Free: []uint32{1}, Pages: map[uint32][]byte{1: page()}}, "page 1 is both"},
		{"duplicate free slot", Image{PageSize: 64, Next: 4, Free: []uint32{2, 2}, Pages: map[uint32][]byte{1: page()}}, "page 2 is on the free list twice"},
		{"slots unaccounted for", Image{PageSize: 64, Next: 5, Free: []uint32{2}, Pages: map[uint32][]byte{1: page()}}, "1 pages and 1 free slots"},
		{"four-entry free list under a two-slot mark", Image{PageSize: 64, Next: 3, Free: []uint32{1, 1, 0, 99999}, Pages: map[uint32][]byte{1: page()}}, "4 free slots"},
	} {
		if _, err := FromImage(&tc.img); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}
