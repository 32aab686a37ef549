// Package uvindex re-implements the paper's 2-D comparator, the UV-index
// (Cheng et al., "UV-diagram: a Voronoi diagram for uncertain data",
// ICDE 2010). Uncertainty regions are circles; the UV-cell of an object is
// the region where it can be the nearest neighbor under circle min/max
// distances.
//
// The original system computes exact UV-cell boundaries from hyperbolic arc
// intersections — the expensive step that makes its construction an order of
// magnitude slower than the PV-index's SE algorithm (Fig. 10(g) reports
// 15–25×). We reproduce that cost profile faithfully: construction traces
// each cell boundary by per-angle numeric root finding against all candidate
// bisector curves (the polygon is the UV-diagram artifact), and additionally
// derives a conservative bounding box for indexing via spatial domination on
// the circles' bounding squares. Queries then run exactly like PV-index
// queries: locate the octree leaf, prune by circle min/max distance.
//
// The UV-index supports 2-D data only, mirroring the original's limitation,
// and must be rebuilt from scratch after updates (no incremental path).
package uvindex

import (
	"fmt"
	"math"
	"sort"
	"time"

	"pvoronoi/internal/domination"
	"pvoronoi/internal/geom"
	"pvoronoi/internal/octree"
	"pvoronoi/internal/pagestore"
	"pvoronoi/internal/rtree"
	"pvoronoi/internal/uncertain"
)

// Circle is a circular uncertainty region.
type Circle struct {
	Center geom.Point
	R      float64
}

// CircleOf returns the circumscribed circle of a rectangular region — how
// rectangle-world datasets are fed to the circle-based UV-index.
func CircleOf(r geom.Rect) Circle {
	c := r.Center()
	return Circle{Center: c, R: geom.Dist(c, r.Hi)}
}

// MinDist is the circle analogue of distmin: max(0, |p−c| − r).
func (c Circle) MinDist(p geom.Point) float64 {
	d := geom.Dist(c.Center, p) - c.R
	if d < 0 {
		return 0
	}
	return d
}

// MaxDist is the circle analogue of distmax: |p−c| + r.
func (c Circle) MaxDist(p geom.Point) float64 {
	return geom.Dist(c.Center, p) + c.R
}

// BoundingSquare returns the axis-parallel square enclosing the circle.
func (c Circle) BoundingSquare() geom.Rect {
	lo := geom.Point{c.Center[0] - c.R, c.Center[1] - c.R}
	hi := geom.Point{c.Center[0] + c.R, c.Center[1] + c.R}
	return geom.Rect{Lo: lo, Hi: hi}
}

// Config parameterizes UV-index construction.
type Config struct {
	// Store is the simulated disk (fresh 4 KB store if nil).
	Store *pagestore.Store
	// MemBudget bounds the primary index's non-leaf memory (default 5 MB).
	MemBudget int
	// Angles is the number of boundary rays traced per UV-cell
	// (default 180) — the UV-diagram computation.
	Angles int
	// Tol is the bisection tolerance for boundary root finding (default 1).
	Tol float64
	// Candidates bounds the neighbor set each cell is traced against
	// (default 60).
	Candidates int
	// MaxDepth bounds the conservative bbox bisection (default 10).
	MaxDepth int
}

// DefaultConfig returns defaults matching the paper's setup. The boundary
// resolution (Angles, Tol, Candidates) governs how faithfully the traced
// polygon reproduces the exact UV-cell — and dominates construction cost,
// exactly as the hyperbolic-arc intersections dominate the original's.
func DefaultConfig() Config {
	return Config{MemBudget: 5 << 20, Angles: 360, Tol: 0.5, Candidates: 120, MaxDepth: 10}
}

// BuildStats reports construction cost.
type BuildStats struct {
	Objects    int
	Total      time.Duration
	SweepTime  time.Duration // UV-cell boundary tracing (the dominant cost)
	BBoxTime   time.Duration // conservative bounding-box derivation
	InsertTime time.Duration
}

// Index is a built UV-index.
type Index struct {
	domain  geom.Rect
	primary *octree.Tree
	circles map[uint32]Circle
	cells   map[uint32][]geom.Point // traced UV-cell polygons
	bboxes  map[uint32]geom.Rect

	Build BuildStats
}

// Build constructs the UV-index over db (2-D only). Rectangular regions are
// replaced by their circumscribed circles.
func Build(db *uncertain.DB, cfg Config) (*Index, error) {
	if db.Dim() != 2 {
		return nil, fmt.Errorf("uvindex: %d-dimensional data unsupported (UV-index is 2-D only)", db.Dim())
	}
	if cfg.Store == nil {
		cfg.Store = pagestore.New(pagestore.DefaultPageSize)
	}
	if cfg.MemBudget <= 0 {
		cfg.MemBudget = 5 << 20
	}
	if cfg.Angles <= 0 {
		cfg.Angles = 180
	}
	if cfg.Tol <= 0 {
		cfg.Tol = 1
	}
	if cfg.Candidates <= 0 {
		cfg.Candidates = 60
	}
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = 10
	}

	ix := &Index{
		domain:  db.Domain,
		circles: make(map[uint32]Circle, db.Len()),
		cells:   make(map[uint32][]geom.Point, db.Len()),
		bboxes:  make(map[uint32]geom.Rect, db.Len()),
	}
	start := time.Now()

	var err error
	ix.primary, err = octree.New(octree.Config{
		Domain: db.Domain,
		Store:  cfg.Store,
		Lookup: func(id uint32) (geom.Rect, bool) {
			r, ok := ix.bboxes[id]
			return r, ok
		},
		MemBudget: cfg.MemBudget,
	})
	if err != nil {
		return nil, err
	}

	// Index circle bounding squares for neighbor retrieval.
	tree := rtree.New(2, rtree.DefaultFanout)
	for _, o := range db.Objects() {
		c := CircleOf(o.Region)
		ix.circles[uint32(o.ID)] = c
		tree.Insert(rtree.Item{Rect: c.BoundingSquare(), ID: uint32(o.ID)})
	}

	for _, o := range db.Objects() {
		id := uint32(o.ID)
		c := ix.circles[id]
		neighbors := ix.nearNeighbors(tree, id, c, cfg.Candidates)

		t0 := time.Now()
		poly := ix.traceCell(c, neighbors, cfg.Angles, cfg.Tol)
		ix.Build.SweepTime += time.Since(t0)
		ix.cells[id] = poly

		t1 := time.Now()
		bbox := ix.conservativeBBox(c, neighbors, cfg.Tol, cfg.MaxDepth)
		ix.Build.BBoxTime += time.Since(t1)
		ix.bboxes[id] = bbox

		t2 := time.Now()
		if err := ix.primary.Insert(id, c.BoundingSquare(), bbox); err != nil {
			return nil, err
		}
		ix.Build.InsertTime += time.Since(t2)
		ix.Build.Objects++
	}
	ix.Build.Total = time.Since(start)
	return ix, nil
}

// nearNeighbors returns up to k non-overlapping neighbor circles of c.
func (ix *Index) nearNeighbors(tree *rtree.Tree, id uint32, c Circle, k int) []Circle {
	it := rtree.NewNNIter(tree, c.Center, rtree.MinDistTo(c.Center))
	defer it.Release()
	var out []Circle
	for len(out) < k {
		item, _, ok := it.Next()
		if !ok {
			break
		}
		if item.ID == id {
			continue
		}
		n := ix.circles[item.ID]
		// Overlapping circles never dominate anywhere; skip them, as IS does.
		if geom.Dist(n.Center, c.Center) <= n.R+c.R {
			continue
		}
		out = append(out, n)
	}
	return out
}

// inCell reports whether p can have the cell's object as NN among neighbors:
// distmin(o, p) <= min over neighbors of distmax(n, p).
func inCell(c Circle, neighbors []Circle, p geom.Point) bool {
	dmin := c.MinDist(p)
	for _, n := range neighbors {
		if n.MaxDist(p) < dmin {
			return false
		}
	}
	return true
}

// traceCell approximates the UV-cell boundary with one root-finding pass per
// angle: along each ray from the circle center, bisect for the farthest
// point still inside the cell. This stands in for the original's hyperbolic
// arc intersections and has the same cost shape (per-curve numeric work per
// boundary element).
func (ix *Index) traceCell(c Circle, neighbors []Circle, angles int, tol float64) []geom.Point {
	poly := make([]geom.Point, 0, angles)
	for a := 0; a < angles; a++ {
		theta := 2 * math.Pi * float64(a) / float64(angles)
		dir := geom.Point{math.Cos(theta), math.Sin(theta)}
		// Upper bound: distance to the domain boundary along the ray.
		hi := rayDomainExit(ix.domain, c.Center, dir)
		lo := 0.0
		if !inCell(c, neighbors, rayPoint(c.Center, dir, hi)) {
			for hi-lo > tol {
				mid := (lo + hi) / 2
				if inCell(c, neighbors, rayPoint(c.Center, dir, mid)) {
					lo = mid
				} else {
					hi = mid
				}
			}
		}
		poly = append(poly, rayPoint(c.Center, dir, hi))
	}
	return poly
}

func rayPoint(origin geom.Point, dir geom.Point, t float64) geom.Point {
	return geom.Point{origin[0] + dir[0]*t, origin[1] + dir[1]*t}
}

// rayDomainExit returns the parameter t at which the ray leaves the domain.
func rayDomainExit(domain geom.Rect, origin, dir geom.Point) float64 {
	t := math.Inf(1)
	for j := 0; j < 2; j++ {
		if dir[j] > 1e-12 {
			if cand := (domain.Hi[j] - origin[j]) / dir[j]; cand < t {
				t = cand
			}
		} else if dir[j] < -1e-12 {
			if cand := (domain.Lo[j] - origin[j]) / dir[j]; cand < t {
				t = cand
			}
		}
	}
	if math.IsInf(t, 1) || t < 0 {
		return 0
	}
	return t
}

// conservativeBBox shrinks the domain toward the cell with SE-style slab
// bisection, certifying discarded slabs by spatial domination over the
// circles' bounding squares (a bounding square overestimates the dominator's
// max distance and underestimates the target's min distance, so the
// certificate is sound for the circles).
func (ix *Index) conservativeBBox(c Circle, neighbors []Circle, tol float64, maxDepth int) geom.Rect {
	cands := make([]geom.Rect, len(neighbors))
	for i, n := range neighbors {
		cands[i] = n.BoundingSquare()
	}
	target := c.BoundingSquare()
	tester := domination.NewTester(cands, target, maxDepth)

	h := ix.domain.Clone()
	l := target.Clone()
	// Clip l to the domain (regions near the border may poke out).
	if li, ok := l.Intersection(ix.domain); ok {
		l = li
	}
	tester.ShrinkExpand(l, h, tol, domination.Bisect)
	return h
}

// Candidate is a Step-1 survivor under the circle model.
type Candidate struct {
	ID      uncertain.ID
	Circle  Circle
	MinDist float64
	MaxDist float64
}

// PossibleNN returns the objects with non-zero probability of being q's
// nearest neighbor under the circle uncertainty model, and the number of
// primary-index leaf pages it read.
func (ix *Index) PossibleNN(q geom.Point) ([]Candidate, int, error) {
	entries, leafIO, err := ix.primary.PointQueryInto(q, nil)
	if err != nil || len(entries) == 0 {
		return nil, leafIO, err
	}
	seen := make(map[uint32]bool, len(entries))
	cands := make([]Candidate, 0, len(entries))
	bestMax := -1.0
	for _, e := range entries {
		if seen[e.ID] {
			continue
		}
		seen[e.ID] = true
		c := ix.circles[e.ID]
		cand := Candidate{
			ID:      uncertain.ID(e.ID),
			Circle:  c,
			MinDist: c.MinDist(q),
			MaxDist: c.MaxDist(q),
		}
		if bestMax < 0 || cand.MaxDist < bestMax {
			bestMax = cand.MaxDist
		}
		cands = append(cands, cand)
	}
	out := cands[:0]
	for _, c := range cands {
		if c.MinDist <= bestMax {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, leafIO, nil
}

// Cell returns the traced UV-cell polygon of an object (the UV-diagram
// artifact), or nil.
func (ix *Index) Cell(id uncertain.ID) []geom.Point { return ix.cells[uint32(id)] }

// BBox returns the conservative cell bounding box used for indexing.
func (ix *Index) BBox(id uncertain.ID) (geom.Rect, bool) {
	r, ok := ix.bboxes[uint32(id)]
	return r, ok
}

// PossibleNNBruteForce is the reference implementation under the circle
// model: o qualifies iff distmin(o, q) <= min over all o' of distmax(o', q).
func PossibleNNBruteForce(db *uncertain.DB, q geom.Point) []uncertain.ID {
	objs := db.Objects()
	if len(objs) == 0 {
		return nil
	}
	best := math.Inf(1)
	circles := make([]Circle, len(objs))
	for i, o := range objs {
		circles[i] = CircleOf(o.Region)
		if d := circles[i].MaxDist(q); d < best {
			best = d
		}
	}
	var out []uncertain.ID
	for i, o := range objs {
		if circles[i].MinDist(q) <= best {
			out = append(out, o.ID)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
