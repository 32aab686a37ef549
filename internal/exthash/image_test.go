package exthash

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"pvoronoi/internal/pagestore"
)

func TestImageRoundTrip(t *testing.T) {
	store := pagestore.New(128)
	tab, err := New(store)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if err := tab.Put(uint32(i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	img := tab.Image()
	pages, err := tab.CollectPages(nil)
	if err != nil {
		t.Fatal(err)
	}
	storeImg, err := store.ImageOf(pages)
	if err != nil {
		t.Fatal(err)
	}
	store2, err := pagestore.FromImage(storeImg)
	if err != nil {
		t.Fatal(err)
	}
	tab2, err := FromImage(store2, img)
	if err != nil {
		t.Fatal(err)
	}
	if tab2.Len() != tab.Len() || tab2.globalDepth != tab.globalDepth {
		t.Fatalf("metadata mismatch: %d/%d vs %d/%d",
			tab2.Len(), tab2.globalDepth, tab.Len(), tab.globalDepth)
	}
	for i := 0; i < 500; i++ {
		v, ok, err := get(tab2, uint32(i))
		if err != nil || !ok || !bytes.Equal(v, []byte(fmt.Sprintf("v%d", i))) {
			t.Fatalf("Get(%d) after restore = %q %v %v", i, v, ok, err)
		}
	}
	// Restored table remains writable.
	if err := tab2.Put(9999, []byte("new")); err != nil {
		t.Fatal(err)
	}
	v, ok, _ := get(tab2, 9999)
	if !ok || !bytes.Equal(v, []byte("new")) {
		t.Fatal("restored table broken for writes")
	}
}

func TestFromImageRejectsBadDirectory(t *testing.T) {
	store := pagestore.New(128)
	if _, err := FromImage(store, &Image{Dir: []uint32{1, 2, 3}, GlobalDepth: 1}); err == nil {
		t.Fatal("directory/depth mismatch accepted")
	}
	tiny := pagestore.New(8)
	if _, err := FromImage(tiny, &Image{Dir: []uint32{1}, GlobalDepth: 0}); err == nil {
		t.Fatal("tiny page size accepted")
	}
}

// TestWriteValueWritesEachPageOnce holds a p-page value to p page writes and
// no page read: every chain page is allocated before its predecessor is
// written, so none is read back and patched.
func TestWriteValueWritesEachPageOnce(t *testing.T) {
	tab := newTable(t, 128)
	const p = 9 // 120 data bytes per page
	before := tab.store.Stats()
	if err := tab.Put(1, make([]byte, p*120-7)); err != nil {
		t.Fatal(err)
	}
	d := tab.store.Stats().Sub(before)
	// Besides the chain: one view and one write of the bucket.
	if d.Writes != p+1 || d.Reads != 1 || d.Allocs != p {
		t.Fatalf("a %d-page Put cost %+v, want %d writes, 1 read, %d allocs", p, d, p+1, p)
	}
}

// TestFromImageRefusesCorruptTables damages one field of a saved table at a
// time and checks FromImage refuses the image, naming the damage, instead of
// adopting a table whose lookups panic or whose CollectPages never returns.
func TestFromImageRefusesCorruptTables(t *testing.T) {
	store := pagestore.New(512)
	tab, err := New(store)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < 200; i++ {
		n := 40
		if i%10 == 0 {
			n = 900 // two chain pages
		}
		if err := tab.Put(i, bytes.Repeat([]byte{byte(i)}, n)); err != nil {
			t.Fatal(err)
		}
	}
	pages, err := tab.CollectPages(nil)
	if err != nil {
		t.Fatal(err)
	}
	slotOf := func(key uint32) slot {
		s, ok, err := tab.findSlot(tab.dir[tab.dirIndex(key)], key)
		if err != nil || !ok {
			t.Fatalf("findSlot(%d): %v %v", key, ok, err)
		}
		return s
	}
	long, other, short := slotOf(10), slotOf(20), slotOf(11)
	second := pagestore.PageID(binary.LittleEndian.Uint32(must(store.View(long.firstPage))[0:4]))
	bucket := uint32(tab.dir[0])

	for _, tc := range []struct {
		name string
		edit func(pages map[uint32][]byte, img *Image)
		want string
	}{
		{"bucket count 0xFFFF", func(p map[uint32][]byte, _ *Image) {
			binary.LittleEndian.PutUint16(p[bucket][2:4], 0xFFFF)
		}, "holds 65535 slots"},
		{"chain cycle", func(p map[uint32][]byte, _ *Image) {
			binary.LittleEndian.PutUint32(p[uint32(second)][0:4], uint32(long.firstPage))
		}, "key 10 does not hold its 900 bytes on 2 pages"},
		{"chains share a page", func(p map[uint32][]byte, _ *Image) {
			binary.LittleEndian.PutUint32(p[uint32(other.firstPage)][0:4], uint32(second))
		}, "reached twice"},
		{"local depth above global", func(p map[uint32][]byte, _ *Image) {
			binary.LittleEndian.PutUint16(p[bucket][0:2], 40)
		}, "at local depth 40"},
		{"chain cut short", func(p map[uint32][]byte, _ *Image) {
			binary.LittleEndian.PutUint32(p[uint32(long.firstPage)][0:4], 0)
		}, "value page 0 of key 10 unreadable"},
		{"chain too long", func(p map[uint32][]byte, _ *Image) {
			binary.LittleEndian.PutUint32(p[uint32(short.firstPage)][0:4], uint32(second))
		}, "does not hold its 40 bytes"},
		{"used fields off by one", func(p map[uint32][]byte, _ *Image) {
			binary.LittleEndian.PutUint32(p[uint32(short.firstPage)][4:8], 41)
		}, "does not hold its 40 bytes"},
		{"size off by one", func(_ map[uint32][]byte, img *Image) { img.Size++ }, "image size 201"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			storeImg, err := store.ImageOf(pages)
			if err != nil {
				t.Fatal(err)
			}
			byID := make(map[uint32][]byte, len(storeImg.Pages))
			for i, p := range storeImg.Pages { // ImageOf lends the live pages
				storeImg.Pages[i].Data = bytes.Clone(p.Data)
				byID[p.ID] = storeImg.Pages[i].Data
			}
			img := tab.Image()
			tc.edit(byID, img)
			restored, err := pagestore.FromImage(storeImg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := FromImage(restored, img); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one containing %q", err, tc.want)
			}
		})
	}
}

func must(p []byte, err error) []byte {
	if err != nil {
		panic(err)
	}
	return p
}
