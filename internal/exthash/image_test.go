package exthash

import (
	"bytes"
	"fmt"
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
	if tab2.Len() != tab.Len() || tab2.GlobalDepth() != tab.GlobalDepth() {
		t.Fatalf("metadata mismatch: %d/%d vs %d/%d",
			tab2.Len(), tab2.GlobalDepth(), tab.Len(), tab.GlobalDepth())
	}
	for i := 0; i < 500; i++ {
		v, ok, err := tab2.Get(uint32(i))
		if err != nil || !ok || !bytes.Equal(v, []byte(fmt.Sprintf("v%d", i))) {
			t.Fatalf("Get(%d) after restore = %q %v %v", i, v, ok, err)
		}
	}
	// Restored table remains writable.
	if err := tab2.Put(9999, []byte("new")); err != nil {
		t.Fatal(err)
	}
	v, ok, _ := tab2.Get(9999)
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
