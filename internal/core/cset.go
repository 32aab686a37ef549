// Package core implements the paper's primary contribution: the
// Shrink-and-Expand (SE) algorithm that computes an Uncertain Bounding
// Rectangle (UBR) conservatively enclosing an object's Possible Voronoi cell,
// together with the C-set selection strategies (ALL, FS, IS) that bound the
// set of objects SE must reason about (§V of the paper).
package core

import (
	"fmt"
	"slices"

	"pvoronoi/internal/geom"
	"pvoronoi/internal/rtree"
	"pvoronoi/internal/uncertain"
)

// CSetStrategy selects how chooseCSet picks the candidate set for SE.
type CSetStrategy int

const (
	// CSetAll uses the whole database (correct but extremely slow; the
	// paper's "ALL" baseline, Fig. 10(b)).
	CSetAll CSetStrategy = iota
	// CSetFS is Fixed Selection: the K objects whose region centers are
	// nearest to o's center.
	CSetFS
	// CSetIS is Incremental Selection: browse o's neighbors in distance
	// order, skipping regions that overlap u(o), until every one of the
	// 2^d quadrants around o has seen KPartition neighbors or KGlobal
	// neighbors have been examined.
	CSetIS
)

// String implements fmt.Stringer for diagnostics and harness output.
func (s CSetStrategy) String() string {
	switch s {
	case CSetAll:
		return "ALL"
	case CSetFS:
		return "FS"
	case CSetIS:
		return "IS"
	default:
		return fmt.Sprintf("CSetStrategy(%d)", int(s))
	}
}

// Options configures SE. The zero value is not usable; call DefaultOptions.
type Options struct {
	// Delta is the SE termination threshold Δ: iteration stops when the
	// largest gap between the lower and upper bounding rectangles falls
	// below it (in domain units).
	Delta float64
	// MaxDepth bounds the recursive partitioning of the domination-count
	// intersection test (the paper's granularity knob m_max).
	MaxDepth int
	// Strategy selects the chooseCSet implementation.
	Strategy CSetStrategy
	// K is the C-set size for FS (paper default 200).
	K int
	// KPartition is IS's per-quadrant neighbor quota (paper default 10).
	KPartition int
	// KGlobal caps the number of neighbors IS examines (paper default 200).
	KGlobal int
}

// DefaultOptions returns the paper's default parameters (Table I).
func DefaultOptions() Options {
	return Options{
		Delta:      1,
		MaxDepth:   10,
		Strategy:   CSetIS,
		K:          200,
		KPartition: 10,
		KGlobal:    200,
	}
}

// chooseCSet appends the regions of object o's C-set to dst and returns it:
// a subset of the database whose non-dominated intersection bounds V(o) (any
// non-empty subset is valid by Lemma 7; larger, better-placed sets let SE
// shrink the UBR further). The tree must index the uncertainty regions of all
// database objects by ID.
func (ws *workspace) chooseCSet(dst []geom.Rect, db *uncertain.DB, tree *rtree.Tree, o *uncertain.Object, opts Options) []geom.Rect {
	switch opts.Strategy {
	case CSetFS:
		return chooseFS(dst, tree, o, opts.K)
	case CSetIS:
		return ws.chooseIS(dst, tree, o, opts.KPartition, opts.KGlobal)
	default:
		return chooseAll(dst, db, o)
	}
}

func chooseAll(dst []geom.Rect, db *uncertain.DB, o *uncertain.Object) []geom.Rect {
	for _, other := range db.Objects() {
		if other.ID != o.ID {
			dst = append(dst, other.Region)
		}
	}
	return dst
}

// chooseFS appends the regions of the k objects centered nearest to o's center.
// Per the paper, FS does not skip objects whose regions overlap u(o).
func chooseFS(dst []geom.Rect, tree *rtree.Tree, o *uncertain.Object, k int) []geom.Rect {
	center := o.Region.Center()
	it := rtree.NewNNIter(tree, center, rtree.CenterDistTo(center))
	defer it.Release()
	for added := 0; added < k; {
		item, _, ok := it.Next()
		if !ok {
			break
		}
		if uncertain.ID(item.ID) != o.ID {
			dst, added = append(dst, item.Rect), added+1
		}
	}
	return dst
}

// chooseIS browses o's neighbors in ascending distance from o's mean
// position, maintaining a counter per domain quadrant (2^d orthants rooted
// at o's center). Neighbors whose regions overlap u(o) are skipped (they
// cannot constrain V(o), Lemma 2). Iteration stops when every quadrant
// counter reaches kPartition or kGlobal neighbors have been examined. With
// no neighbor that does not overlap o, the C-set is empty and SE returns h.
func (ws *workspace) chooseIS(dst []geom.Rect, tree *rtree.Tree, o *uncertain.Object, kPartition, kGlobal int) []geom.Rect {
	center := o.Region.Center()
	quadrants := 1 << o.Dim()
	counts := slices.Grow(ws.counts[:0], quadrants)[:quadrants]
	clear(counts)
	ws.counts = counts
	satisfied := 0
	it := rtree.NewNNIter(tree, center, rtree.MinDistTo(center))
	defer it.Release()
	examined := 0
	for examined < kGlobal && satisfied < quadrants {
		item, _, ok := it.Next()
		if !ok {
			break
		}
		if uncertain.ID(item.ID) == o.ID {
			continue
		}
		examined++
		if item.Rect.Intersects(o.Region) {
			continue // overlapping regions never constrain V(o)
		}
		dst = append(dst, item.Rect)
		for q := 0; q < quadrants; q++ {
			if !quadrantIntersects(item.Rect, center, q) {
				continue
			}
			counts[q]++
			if counts[q] == kPartition {
				satisfied++
			}
		}
	}
	ws.leaves = it.Leaves()
	return dst
}

// quadrantIntersects reports whether rect r intersects the orthant of the
// domain anchored at center whose sign pattern is given by mask: bit j set
// means the orthant spans [center_j, +inf) in dimension j.
func quadrantIntersects(r geom.Rect, center geom.Point, mask int) bool {
	for j := 0; j < len(center); j++ {
		if mask&(1<<j) != 0 {
			if r.Hi[j] < center[j] {
				return false
			}
		} else {
			if r.Lo[j] > center[j] {
				return false
			}
		}
	}
	return true
}
