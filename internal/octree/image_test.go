package octree

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"strings"
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
	// Every leaf has its one (empty) page, so the tree passes Validate.
	leaf := func(depth int32) NodeImage {
		id, err := store.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		return NodeImage{FirstPage: uint32(id), Pages: 1, Depth: depth}
	}
	img3 := &Image{
		DomainLo: []float64{0, 0},
		DomainHi: []float64{1, 1},
		MaxDepth: 1,
		Nodes: []NodeImage{
			{Children: []int32{1, 2, 3, 4}},
			{Children: []int32{5, 6, 7, 8}, Depth: 1}, leaf(1), leaf(1), leaf(1),
			leaf(2), leaf(2), leaf(2), leaf(2),
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

// TestFromImageRefusesCorruptChains damages one leaf chain or node link of a
// saved tree at a time: FromImage must refuse each, since point queries slice
// a page's records by its count and CollectPages follows a chain to its end.
func TestFromImageRefusesCorruptChains(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ti := newTestIndex(t, 2, 1000, 256, 1<<20)
	for i := uint32(0); i < 300; i++ {
		u := randSubRect(rng, 1000, 15, 2)
		ti.insert(t, i, u, u.Expand(20))
	}
	pages, err := ti.tree.CollectPages(nil)
	if err != nil {
		t.Fatal(err)
	}
	saved := ti.tree.Image()
	var leaves []int // single-page leaves
	for i, n := range saved.Nodes {
		if len(n.Children) == 0 && n.Pages == 1 {
			leaves = append(leaves, i)
		}
	}
	if len(saved.Nodes[0].Children) == 0 || len(leaves) < 2 {
		t.Fatal("the tree has no split root or fewer than two single-page leaves")
	}
	a, b := saved.Nodes[leaves[0]].FirstPage, leaves[1]
	for _, tc := range []struct {
		name string
		edit func(img *Image, pages map[uint32][]byte)
		want string
	}{
		{"page links to itself", func(_ *Image, p map[uint32][]byte) { binary.LittleEndian.PutUint32(p[a][0:4], a) }, "reached twice or past the leaf's 1 pages"},
		{"count beyond a page", func(_ *Image, p map[uint32][]byte) { binary.LittleEndian.PutUint32(p[a][4:8], 1<<31) }, "holds 2147483648 entries"},
		{"two leaves share a page", func(img *Image, _ map[uint32][]byte) { img.Nodes[b].FirstPage = a }, "reached twice"},
		{"negative page count", func(img *Image, _ map[uint32][]byte) { img.Nodes[b].Pages = -1 }, "leaf records -1 pages"},
		{"node reached twice", func(img *Image, _ map[uint32][]byte) {
			img.Nodes[0].Children[1] = img.Nodes[0].Children[0]
		}, "reached twice"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			storeImg, err := ti.tree.store.ImageOf(pages)
			if err != nil {
				t.Fatal(err)
			}
			for id, p := range storeImg.Pages { // ImageOf lends the live pages
				storeImg.Pages[id] = bytes.Clone(p)
			}
			img := *saved
			img.Nodes = slices.Clone(saved.Nodes)
			img.Nodes[0].Children = slices.Clone(saved.Nodes[0].Children)
			tc.edit(&img, storeImg.Pages)
			store, err := pagestore.FromImage(storeImg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := FromImage(store, nil, &img); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one containing %q", err, tc.want)
			}
		})
	}
}
