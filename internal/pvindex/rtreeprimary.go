package pvindex

import (
	"sort"

	"pvoronoi/internal/geom"
	"pvoronoi/internal/rtree"
	"pvoronoi/internal/uncertain"
)

// RTreePrimary is the alternative primary-index design the paper considers
// and rejects in §VI-A (footnote 3): storing the UBRs in an R-tree instead
// of an octree. Because R-tree node regions overlap, a point query may
// descend several subtrees instead of exactly one leaf chain — the reason
// the paper chose the octree. It is provided for the design ablation
// (pvbench ablations) and answers queries identically.
type RTreePrimary struct {
	tree    *rtree.Tree
	regions map[uncertain.ID]geom.Rect // u(o) per object
}

// NewRTreePrimary builds the R-tree variant from a constructed PV-index,
// reusing its stored UBRs.
func NewRTreePrimary(ix *Index, fanout int) *RTreePrimary {
	db := ix.DB()
	rp := &RTreePrimary{
		tree:    rtree.New(db.Dim(), fanout),
		regions: make(map[uncertain.ID]geom.Rect, db.Len()),
	}
	for _, o := range db.Objects() {
		ubr, ok := ix.UBR(o.ID)
		if !ok {
			continue
		}
		rp.tree.Insert(rtree.Item{Rect: ubr, ID: uint32(o.ID)})
		rp.regions[o.ID] = o.Region
	}
	return rp
}

// PossibleNN answers PNNQ Step 1 exactly like Index.PossibleNN: objects
// whose UBR contains q, pruned by min/max distance. It also returns the
// number of R-tree leaves it read.
func (rp *RTreePrimary) PossibleNN(q geom.Point) ([]Candidate, int) {
	items, cost := rp.tree.Search(geom.PointRect(q), nil)
	if len(items) == 0 {
		return nil, cost.Leaves
	}
	cands := make([]Candidate, 0, len(items))
	bestMax := -1.0
	for _, it := range items {
		region, ok := rp.regions[uncertain.ID(it.ID)]
		if !ok {
			continue
		}
		c := Candidate{
			ID:      uncertain.ID(it.ID),
			Region:  region,
			MinDist: region.MinDist(q),
			MaxDist: region.MaxDist(q),
		}
		if bestMax < 0 || c.MaxDist < bestMax {
			bestMax = c.MaxDist
		}
		cands = append(cands, c)
	}
	out := cands[:0]
	for _, c := range cands {
		if c.MinDist <= bestMax {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, cost.Leaves
}
