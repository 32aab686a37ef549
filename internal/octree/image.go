package octree

import (
	"encoding/binary"
	"fmt"

	"pvoronoi/internal/geom"
	"pvoronoi/internal/pagestore"
)

// NodeImage is one serialized octree node. Children holds indices into the
// flattened node list (nil/empty for leaves).
type NodeImage struct {
	Children  []int32
	FirstPage uint32
	Pages     int32
	Depth     int32
}

// Image is the serializable state of a Tree (leaf pages live in the page
// store and are captured by its image).
type Image struct {
	DomainLo, DomainHi []float64
	Nodes              []NodeImage // index 0 is the root
	MemBudget          int
	MemUsed            int
	MaxDepth           int
	Size               int
	SplitCount         int
}

// Image captures the tree's structure.
func (t *Tree) Image() *Image {
	img := &Image{
		DomainLo:   t.domain.Lo,
		DomainHi:   t.domain.Hi,
		MemBudget:  t.memBudget,
		MemUsed:    t.memUsed,
		MaxDepth:   t.maxDepth,
		Size:       t.size,
		SplitCount: t.SplitCount,
	}
	var flatten func(n *node) int32
	flatten = func(n *node) int32 {
		idx := int32(len(img.Nodes))
		img.Nodes = append(img.Nodes, NodeImage{
			FirstPage: uint32(n.firstPage),
			Pages:     int32(n.pages),
			Depth:     int32(n.depth),
		})
		if n.children != nil {
			children := make([]int32, len(n.children))
			for i, c := range n.children {
				children[i] = flatten(c)
			}
			img.Nodes[idx].Children = children
		}
		return idx
	}
	flatten(t.root)
	return img
}

// CompactImage captures the tree for a snapshot: its Image, and its pages
// copied and renumbered 1, 2, … in CollectPages order, every chain pointer
// and first page rewritten to match. The bytes then depend on the tree's
// shape and entries alone, not on where its pages happened to be allocated:
// a replayed index saves what the live one saves.
func (t *Tree) CompactImage() (*Image, *pagestore.Image, error) {
	ids, err := t.CollectPages(nil)
	if err != nil {
		return nil, nil, err
	}
	lent, err := t.store.ImageOf(ids)
	if err != nil {
		return nil, nil, err
	}
	renum := make(map[uint32]uint32, len(ids))
	for i, id := range ids {
		renum[uint32(id)] = uint32(i + 1)
	}
	ps := lent.PageSize
	buf := make([]byte, len(lent.Pages)*ps)
	pages := &pagestore.Image{PageSize: ps, Next: uint32(len(lent.Pages)) + 1, Pages: make([]pagestore.Page, len(lent.Pages))}
	for _, p := range lent.Pages {
		i := int(renum[p.ID]) - 1
		data := buf[i*ps : (i+1)*ps]
		copy(data, p.Data)
		if next := binary.LittleEndian.Uint32(data); next != 0 {
			binary.LittleEndian.PutUint32(data, renum[next])
		}
		pages.Pages[i] = pagestore.Page{ID: uint32(i + 1), Data: data}
	}
	img := t.Image()
	for k := range img.Nodes {
		img.Nodes[k].FirstPage = renum[img.Nodes[k].FirstPage]
	}
	return img, pages, nil
}

// maxImageDepth bounds a loaded tree's MaxDepth: beyond it a float64 cell
// can no longer be halved.
const maxImageDepth = 64

// FromImage reconstructs a tree over a restored store. The lookup callback
// must be re-supplied (closures do not serialize). The image comes from a
// file, so each node must be reached once and the tree must pass Validate:
// walks follow a leaf's chain to its end and slice a page's records by its
// count.
func FromImage(store *pagestore.Store, lookup UBRLookup, img *Image) (*Tree, error) {
	if len(img.Nodes) == 0 {
		return nil, fmt.Errorf("octree: empty node list in image")
	}
	if img.MaxDepth < 0 || img.MaxDepth > maxImageDepth {
		return nil, fmt.Errorf("octree: max depth %d out of range", img.MaxDepth)
	}
	domain := geom.Rect{Lo: img.DomainLo, Hi: img.DomainHi}
	if err := geom.CheckDim(domain.Dim()); err != nil {
		return nil, fmt.Errorf("octree: %w", err)
	}
	t := &Tree{
		domain:     domain,
		dim:        domain.Dim(),
		store:      store,
		lookup:     lookup,
		memBudget:  img.MemBudget,
		memUsed:    img.MemUsed,
		maxDepth:   img.MaxDepth,
		size:       img.Size,
		SplitCount: img.SplitCount,
		sess:       pagestore.NewFullSession(store),
	}
	fan := 1 << t.dim
	reached := make([]bool, len(img.Nodes))
	var build func(idx int32, depth int) (*node, error)
	build = func(idx int32, depth int) (*node, error) {
		if idx < 0 || int(idx) >= len(img.Nodes) || reached[idx] {
			return nil, fmt.Errorf("octree: node index %d out of range or reached twice", idx)
		}
		reached[idx] = true
		ni := img.Nodes[idx]
		n := &node{
			owner:     t.sess,
			firstPage: pagestore.PageID(ni.FirstPage),
			pages:     int(ni.Pages),
			depth:     int(ni.Depth),
		}
		if len(ni.Children) > 0 {
			// Splits stop at MaxDepth, which sizes every walk's cell stack.
			if depth >= t.maxDepth {
				return nil, fmt.Errorf("octree: node %d splits at depth %d, max %d", idx, depth, t.maxDepth)
			}
			if len(ni.Children) != fan {
				return nil, fmt.Errorf("octree: node %d has %d children, want %d", idx, len(ni.Children), fan)
			}
			n.children = make([]*node, fan)
			for i, ci := range ni.Children {
				c, err := build(ci, depth+1)
				if err != nil {
					return nil, err
				}
				n.children[i] = c
			}
		}
		return n, nil
	}
	root, err := build(0, 0)
	if err != nil {
		return nil, err
	}
	t.root = root
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}
