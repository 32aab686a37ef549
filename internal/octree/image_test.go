package octree

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
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
			byID := make(map[uint32][]byte, len(storeImg.Pages))
			for i, p := range storeImg.Pages { // ImageOf lends the live pages
				storeImg.Pages[i].Data = bytes.Clone(p.Data)
				byID[p.ID] = storeImg.Pages[i].Data
			}
			img := *saved
			img.Nodes = slices.Clone(saved.Nodes)
			img.Nodes[0].Children = slices.Clone(saved.Nodes[0].Children)
			tc.edit(&img, byID)
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

// TestCompactImageIndependentOfAllocation: two trees holding the same
// entries, built by the same operations on stores whose free lists differ,
// put their pages under different IDs; their compact images are byte for
// byte the same, and load into a tree that answers as the original does.
func TestCompactImageIndependentOfAllocation(t *testing.T) {
	var encoded [][]byte
	var first *testIndex
	for k, junk := range []int{0, 37} {
		ti := newTestIndex(t, 2, 1000, 256, 1<<20)
		var held []pagestore.PageID
		for range junk { // pages taken and freed in a scrambled order before the tree's
			id, err := ti.tree.store.Alloc()
			if err != nil {
				t.Fatal(err)
			}
			held = append(held, id)
		}
		rand.New(rand.NewSource(int64(k))).Shuffle(len(held), func(i, j int) { held[i], held[j] = held[j], held[i] })
		for _, id := range held {
			if err := ti.tree.store.Free(id); err != nil {
				t.Fatal(err)
			}
		}
		rng := rand.New(rand.NewSource(2))
		for i := uint32(0); i < 400; i++ {
			u := randSubRect(rng, 1000, 15, 2)
			ti.insert(t, i, u, u.Expand(30))
		}
		img, pages, err := ti.tree.CompactImage()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(struct {
			Img   *Image
			Pages *pagestore.Image
		}{img, pages}); err != nil {
			t.Fatal(err)
		}
		encoded = append(encoded, buf.Bytes())
		if k == 0 {
			first = ti
			continue
		}
		if a, _ := first.tree.CollectPages(nil); slices.Equal(a, must(ti.tree.CollectPages(nil))) {
			t.Fatal("both trees hold their pages under the same IDs: the test shows nothing")
		}
		store, err := pagestore.FromImage(pages)
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := FromImage(store, ti.tree.lookup, img)
		if err != nil {
			t.Fatal(err)
		}
		for iter := 0; iter < 200; iter++ {
			q := geom.Point{rng.Float64() * 1000, rng.Float64() * 1000}
			a, _, err := ti.tree.PointQueryInto(q, nil)
			if err != nil {
				t.Fatal(err)
			}
			b, _, err := loaded.PointQueryInto(q, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(a) != len(b) {
				t.Fatalf("q=%v: %d entries, the loaded tree %d", q, len(a), len(b))
			}
			for i := range a {
				if a[i].ID != b[i].ID {
					t.Fatalf("q=%v: entry %d is %d, the loaded tree's %d", q, i, a[i].ID, b[i].ID)
				}
			}
		}
	}
	if !bytes.Equal(encoded[0], encoded[1]) {
		t.Fatal("the same tree on differently allocated pages has other compact-image bytes")
	}
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
