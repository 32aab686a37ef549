package rtree

import (
	"cmp"
	"math"
	"slices"
)

// bulkFillPercent is how full BulkLoad packs every node. It is the ~70%
// utilisation R* insertion converges to (Beckmann et al., §5): packed full,
// every leaf would overflow on its first insert and pay a forced reinsert
// or split, and the write path mutates this tree right after a build or load.
const bulkFillPercent = 70

// BulkLoad returns a tree holding items, packed bottom-up by
// Sort-Tile-Recursive (Leutenegger et al., ICDE 1997) in O(n log n) instead
// of n R* insertions. The result is deterministic (ties broken by ID), obeys
// every invariant Insert maintains and is owned by a fresh session like a
// New tree, so Insert, Delete and CloneCOW work on it unchanged.
func BulkLoad(dim, fanout int, items []Item) *Tree {
	t := New(dim, fanout)
	es := make([]entry, len(items))
	for i, it := range items {
		t.checkDim(it)
		es[i] = entry{rect: it.Rect, item: it}
	}
	t.size = len(items)
	fill := max(t.minEntries, t.maxEntries*bulkFillPercent/100)
	level := 0
	for ; len(es) > t.maxEntries; level++ {
		// The fewest nodes that respect the fill target, entries spread
		// evenly: since len(es) > maxEntries none falls below minEntries.
		p := (len(es) + fill - 1) / fill
		strTile(es, p, 0, dim)
		parents := make([]entry, p)
		for j := range parents {
			n := t.packedNode(level, es[tileStart(len(es), p, j):tileStart(len(es), p, j+1)])
			parents[j] = entry{rect: n.mbr(), child: n}
		}
		es = parents
	}
	t.root = t.packedNode(level, es)
	return t
}

// packedNode copies es into a new node with room for one overflow entry.
func (t *Tree) packedNode(level int, es []entry) *node {
	return &node{owner: t.sess, level: level, entries: append(make([]entry, 0, t.maxEntries+1), es...)}
}

// tileStart returns the index at which tile j of p begins when n entries are
// spread evenly: the first n%p tiles hold one entry more than the rest.
func tileStart(n, p, j int) int {
	return j*(n/p) + min(j, n%p)
}

// strTile reorders es so that its p even tiles (see tileStart) are the STR
// packing over axes axis..dim-1: sort by center along axis, cut into
// ceil(p^(1/axes left)) slabs of whole tiles, recurse into each slab on the
// next axis. A slab re-spreads evenly to the same tile sizes, so the
// recursion and the caller agree on the boundaries.
func strTile(es []entry, p, axis, dim int) {
	if p == 1 {
		return
	}
	slices.SortFunc(es, func(a, b entry) int {
		return cmp.Or(
			cmp.Compare(a.rect.Lo[axis]+a.rect.Hi[axis], b.rect.Lo[axis]+b.rect.Hi[axis]),
			cmp.Compare(a.item.ID, b.item.ID))
	})
	if axis == dim-1 {
		return
	}
	// The epsilon keeps an exact root (8^(1/3)) from rounding up a slab.
	slabs := int(math.Ceil(math.Pow(float64(p), 1/float64(dim-axis)) - 1e-9))
	for i := 0; i < slabs; i++ {
		from, to := tileStart(p, slabs, i), tileStart(p, slabs, i+1)
		strTile(es[tileStart(len(es), p, from):tileStart(len(es), p, to)], to-from, axis+1, dim)
	}
}
