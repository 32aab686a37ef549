package octree

import (
	"math/rand"
	"testing"

	"pvoronoi/internal/geom"
	"pvoronoi/internal/pagestore"
)

func TestImageRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ti := newTestIndex(t, 2, 1000, 256, 1<<20)
	for i := uint32(0); i < 300; i++ {
		u := randSubRect(rng, 1000, 15, 2)
		ti.insert(t, i, u, u.Expand(20))
	}
	img := ti.tree.Image()
	// Restore over a copy of the tree's pages.
	pages, err := ti.tree.CollectPages(nil)
	if err != nil {
		t.Fatal(err)
	}
	storeImg, err := ti.tree.store.ImageOf(pages)
	if err != nil {
		t.Fatal(err)
	}
	store2, err := pagestore.FromImage(storeImg)
	if err != nil {
		t.Fatal(err)
	}
	tree2, err := FromImage(store2, ti.tree.lookup, img)
	if err != nil {
		t.Fatal(err)
	}
	if tree2.Size() != ti.tree.Size() || tree2.MemUsed() != ti.tree.MemUsed() {
		t.Fatalf("size/mem mismatch: %d/%d vs %d/%d",
			tree2.Size(), tree2.MemUsed(), ti.tree.Size(), ti.tree.MemUsed())
	}
	s1, s2 := ti.tree.TreeStats(), tree2.TreeStats()
	if s1 != s2 {
		t.Fatalf("tree stats diverge: %+v vs %+v", s1, s2)
	}
	for iter := 0; iter < 100; iter++ {
		q := geom.Point{rng.Float64() * 1000, rng.Float64() * 1000}
		a, _, err := ti.tree.PointQueryInto(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := tree2.PointQueryInto(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("q=%v: %d vs %d entries", q, len(a), len(b))
		}
	}
}

func TestFromImageRejectsCorruptStructures(t *testing.T) {
	store := pagestore.New(256)
	if _, err := FromImage(store, nil, &Image{DomainLo: []float64{0, 0}, DomainHi: []float64{1, 1}}); err == nil {
		t.Fatal("empty node list accepted")
	}
	// Child index out of range.
	img := &Image{
		DomainLo: []float64{0, 0},
		DomainHi: []float64{1, 1},
		MaxDepth: 24,
		Nodes: []NodeImage{
			{Children: []int32{1, 2, 3, 99}},
			{}, {}, {},
		},
	}
	if _, err := FromImage(store, nil, img); err == nil {
		t.Fatal("out-of-range child index accepted")
	}
	// Wrong child count for the dimensionality.
	img2 := &Image{
		DomainLo: []float64{0, 0},
		DomainHi: []float64{1, 1},
		MaxDepth: 24,
		Nodes: []NodeImage{
			{Children: []int32{1, 2}},
			{}, {},
		},
	}
	if _, err := FromImage(store, nil, img2); err == nil {
		t.Fatal("wrong fanout accepted")
	}
	// A split at MaxDepth: every walk's cell stack holds MaxDepth+2 cells.
	img3 := &Image{
		DomainLo: []float64{0, 0},
		DomainHi: []float64{1, 1},
		MaxDepth: 1,
		Nodes: []NodeImage{
			{Children: []int32{1, 2, 3, 4}},
			{Children: []int32{5, 6, 7, 8}}, {}, {}, {},
			{}, {}, {}, {},
		},
	}
	if _, err := FromImage(store, nil, img3); err == nil {
		t.Fatal("split at MaxDepth accepted")
	}
	img3.MaxDepth = 2
	if _, err := FromImage(store, nil, img3); err != nil {
		t.Fatalf("depth-2 tree under MaxDepth 2: %v", err)
	}
	img3.MaxDepth = maxImageDepth + 1
	if _, err := FromImage(store, nil, img3); err == nil {
		t.Fatal("MaxDepth beyond a float's halvings accepted")
	}
}
