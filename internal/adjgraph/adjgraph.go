// Package adjgraph materializes the PV-index's Voronoi-adjacency relation:
// one row per object holding its stored UBR and the sorted IDs of every
// object whose UBR intersects it. Because a possible Voronoi cell V(o) is
// contained in UBR(o), two cells that touch anywhere have intersecting UBRs
// — so the relation is a conservative superset of PV-cell adjacency. It is
// also precisely the affected-set relation of the paper's Lemma 8 update
// filters, which is what makes it maintainable incrementally: an update
// recomputes the rows of exactly the objects whose UBRs it recomputed. No
// query reads it: UBR refinement ranks hubs by row degree, and the index
// reports its size and degrees.
//
// The graph is copy-on-write by ID page, mirroring the octree and hash-table
// COW discipline of the MVCC versions: rows live in pages of 256 consecutive
// IDs reached through a directory, CloneCOW copies the directory (one pointer
// per page), the first mutation of a page copies its 256 row pointers, and
// rows themselves are immutable once stored — a mutation installs a fresh
// *Row. A batch therefore pays for the rows it touches, whatever the largest
// ID is. A published graph is never modified; readers pinned to any version
// can walk rows without synchronization, and discarding an unpublished clone
// is a complete rollback (the graph owns no pagestore resources).
package adjgraph

import (
	"fmt"
	"maps"
	"slices"

	"pvoronoi/internal/geom"
)

// Row is one object's adjacency row: its stored UBR plus the ascending IDs
// of every object whose UBR intersects it. Rows are immutable once stored —
// a heap item or pinned reader may hold a *Row across concurrent writes.
type Row struct {
	UBR       geom.Rect
	Neighbors []uint32
}

// pageBits sizes a page: 256 consecutive IDs, a 2 kB copy on first write.
const pageBits = 8

// dirCap bounds the directory slice: pages of IDs below 1<<20 are reached by
// an indexed load — the adjacency pass probes a row once per range-query
// hit, so for the common dense-ID case the probe must be two indexed loads,
// not a hash — and a clone copies at most 32 kB of it. Pages further
// out hang off a map keyed by page number.
const dirCap = 1 << (20 - pageBits)

// page holds the rows of 256 consecutive IDs; nil slots are absent. owner is
// the tag of the graph allowed to mutate it in place (a tag, not the graph: a
// page outlives the graph that made it and must not keep that graph's
// directory alive); any other graph sharing the page must copy it first.
type page struct {
	owner *tag
	live  int // non-nil rows; a page that empties is dropped
	rows  [1 << pageBits]*Row
}

// tag is a graph's identity as a page owner.
type tag struct{ _ byte }

// Graph is the adjacency relation of one index version. The zero value is
// not ready; use New. Not safe for concurrent mutation — the MVCC writer
// owns at most one mutable clone at a time — but any number of readers may
// traverse a graph that is no longer being mutated (i.e. published).
type Graph struct {
	tag   *tag             // it owns the pages that carry it
	dir   []*page          // dir[id>>pageBits], grown on demand up to dirCap
	far   map[uint32]*page // pages numbered dirCap and up
	rows  int
	edges int // directed neighbor links; undirected edge count is edges/2
}

// New returns an empty graph.
func New() *Graph { return &Graph{tag: new(tag)} }

// CloneCOW returns a mutable copy sharing every page with g. The clone copies
// a page when first writing to it; g itself must not be mutated afterwards
// (it is the published predecessor).
func (g *Graph) CloneCOW() *Graph {
	return &Graph{tag: new(tag), dir: slices.Clone(g.dir), far: maps.Clone(g.far),
		rows: g.rows, edges: g.edges}
}

// pageOf returns the page holding id, nil if there is none.
func (g *Graph) pageOf(id uint32) *page {
	if n := id >> pageBits; n < uint32(len(g.dir)) {
		return g.dir[n]
	} else if n >= dirCap {
		return g.far[n]
	}
	return nil
}

// writable returns the page holding id with g as its owner, creating it or
// copying a shared one on first write.
func (g *Graph) writable(id uint32) *page {
	p := g.pageOf(id)
	if p != nil && p.owner == g.tag {
		return p
	}
	np := &page{}
	if p != nil {
		*np = *p
	}
	np.owner = g.tag
	g.setPage(id>>pageBits, np)
	return np
}

// setPage points the directory at p for page n; a nil p drops the page.
func (g *Graph) setPage(n uint32, p *page) {
	switch {
	case n < dirCap:
		if int(n) >= len(g.dir) {
			g.dir = append(g.dir, make([]*page, int(n)+1-len(g.dir))...)
		}
		g.dir[n] = p
	case p == nil:
		delete(g.far, n)
	default:
		if g.far == nil {
			g.far = make(map[uint32]*page)
		}
		g.far[n] = p
	}
}

// put installs (or, with a nil row, removes) id's row; the page goes with
// its last row, so IDs that came and went leave nothing behind.
func (g *Graph) put(id uint32, r *Row) {
	p := g.writable(id)
	slot := &p.rows[id&(1<<pageBits-1)]
	switch {
	case *slot == nil && r != nil:
		p.live++
	case *slot != nil && r == nil:
		p.live--
	}
	if *slot = r; p.live == 0 {
		g.setPage(id>>pageBits, nil)
	}
}

// Get returns id's row. The row is immutable — do not modify it.
func (g *Graph) Get(id uint32) (*Row, bool) {
	if p := g.pageOf(id); p != nil {
		r := p.rows[id&(1<<pageBits-1)]
		return r, r != nil
	}
	return nil, false
}

// Len returns the number of rows (objects).
func (g *Graph) Len() int { return g.rows }

// Edges returns the number of directed neighbor links (twice the undirected
// edge count, since the relation is symmetric).
func (g *Graph) Edges() int { return g.edges }

// Set installs id's row with the given UBR and neighbor set, replacing any
// previous row. neighbors is adopted (sorted in place) — the caller must not
// reuse it. The UBR coordinates are copied into one backing array (lo then
// hi), so the stored row never aliases the caller's rect.
func (g *Graph) Set(id uint32, ubr geom.Rect, neighbors []uint32) {
	slices.Sort(neighbors)
	if old, ok := g.Get(id); ok {
		g.edges -= len(old.Neighbors)
	} else {
		g.rows++
	}
	g.edges += len(neighbors)
	g.put(id, &Row{UBR: compactRect(ubr), Neighbors: neighbors})
}

// compactRect deep-copies r with Lo and Hi sharing a single backing array.
func compactRect(r geom.Rect) geom.Rect {
	d := r.Dim()
	if d == 0 {
		return r
	}
	flat := make([]float64, 2*d)
	copy(flat[:d], r.Lo)
	copy(flat[d:], r.Hi)
	return geom.Rect{Lo: flat[:d:d], Hi: flat[d:]}
}

// Delete removes id's row (not its reverse links — the maintenance pass
// patches those explicitly). It reports whether the row existed.
func (g *Graph) Delete(id uint32) bool {
	old, ok := g.Get(id)
	if !ok {
		return false
	}
	g.rows--
	g.edges -= len(old.Neighbors)
	g.put(id, nil)
	return true
}

// AddNeighbor inserts n into id's neighbor list if absent (idempotent).
// It reports whether the list changed. Missing rows are ignored.
func (g *Graph) AddNeighbor(id, n uint32) bool {
	old, ok := g.Get(id)
	if !ok {
		return false
	}
	i, found := slices.BinarySearch(old.Neighbors, n)
	if found {
		return false
	}
	ns := make([]uint32, 0, len(old.Neighbors)+1)
	ns = append(ns, old.Neighbors[:i]...)
	ns = append(ns, n)
	ns = append(ns, old.Neighbors[i:]...)
	g.put(id, &Row{UBR: old.UBR, Neighbors: ns})
	g.edges++
	return true
}

// RemoveNeighbor removes n from id's neighbor list if present (idempotent).
// It reports whether the list changed. Missing rows are ignored.
func (g *Graph) RemoveNeighbor(id, n uint32) bool {
	old, ok := g.Get(id)
	if !ok {
		return false
	}
	i, found := slices.BinarySearch(old.Neighbors, n)
	if !found {
		return false
	}
	ns := make([]uint32, 0, len(old.Neighbors)-1)
	ns = append(ns, old.Neighbors[:i]...)
	ns = append(ns, old.Neighbors[i+1:]...)
	g.put(id, &Row{UBR: old.UBR, Neighbors: ns})
	g.edges--
	return true
}

// ForEach visits every row in ascending ID order; returning false stops the
// walk. Rows are immutable — do not modify them.
func (g *Graph) ForEach(fn func(id uint32, row *Row) bool) {
	visit := func(n uint32, p *page) bool {
		for i, row := range p.rows {
			if row != nil && !fn(n<<pageBits|uint32(i), row) {
				return false
			}
		}
		return true
	}
	for n, p := range g.dir {
		if p != nil && !visit(uint32(n), p) {
			return
		}
	}
	for _, n := range slices.Sorted(maps.Keys(g.far)) {
		if !visit(n, g.far[n]) {
			return
		}
	}
}

// Image is the graph's flat serialized form: IDs ascending, each id's UBR as
// 2*Dim coordinates (lo then hi) in UBRs, its neighbor count in Lens, and
// all neighbor lists concatenated in Flat. Deterministic for identical
// graphs, gob-friendly, and reconstructible in one pass. Images written
// before the graph stopped tracking a maximum object diameter carry a
// MaxDiag field as well; gob skips it on decode.
type Image struct {
	Dim  int
	IDs  []uint32
	UBRs []float64
	Lens []uint32
	Flat []uint32
}

// Image serializes the graph.
func (g *Graph) Image() *Image {
	img := &Image{
		IDs:  make([]uint32, 0, g.rows),
		Lens: make([]uint32, 0, g.rows),
		Flat: make([]uint32, 0, g.edges),
	}
	g.ForEach(func(id uint32, row *Row) bool {
		if img.Dim == 0 {
			img.Dim = row.UBR.Dim()
			img.UBRs = make([]float64, 0, 2*img.Dim*g.rows)
		}
		img.IDs = append(img.IDs, id)
		img.UBRs = append(img.UBRs, row.UBR.Lo...)
		img.UBRs = append(img.UBRs, row.UBR.Hi...)
		img.Lens = append(img.Lens, uint32(len(row.Neighbors)))
		img.Flat = append(img.Flat, row.Neighbors...)
		return true
	})
	return img
}

// FromImage reconstructs a graph from its serialized form.
func FromImage(img *Image) (*Graph, error) {
	if img == nil {
		return nil, fmt.Errorf("adjgraph: nil image")
	}
	if len(img.Lens) != len(img.IDs) {
		return nil, fmt.Errorf("adjgraph: image has %d ids but %d lens", len(img.IDs), len(img.Lens))
	}
	if img.Dim > 0 && len(img.UBRs) != 2*img.Dim*len(img.IDs) {
		return nil, fmt.Errorf("adjgraph: image has %d UBR coords, want %d", len(img.UBRs), 2*img.Dim*len(img.IDs))
	}
	g := New()
	flat := img.Flat
	coords := img.UBRs
	for i, id := range img.IDs {
		n := int(img.Lens[i])
		if n > len(flat) {
			return nil, fmt.Errorf("adjgraph: image row %d overruns flat neighbor array", id)
		}
		var ubr geom.Rect
		if img.Dim > 0 {
			ubr = geom.Rect{
				Lo: geom.Point(coords[:img.Dim:img.Dim]),
				Hi: geom.Point(coords[img.Dim : 2*img.Dim : 2*img.Dim]),
			}
			coords = coords[2*img.Dim:]
		}
		g.Set(id, ubr, append([]uint32(nil), flat[:n]...))
		flat = flat[n:]
	}
	if len(flat) != 0 {
		return nil, fmt.Errorf("adjgraph: image has %d trailing neighbor entries", len(flat))
	}
	return g, nil
}
