// Package geom provides d-dimensional points, axis-parallel rectangles, and
// the distance primitives used throughout the PV-index: minimum and maximum
// Euclidean distances between points and rectangles, rectangle predicates,
// and volume computations.
//
// All structures use float64 coordinates. Dimensionality is dynamic (a slice
// length), matching the paper's evaluation over d ∈ {2,3,4,5}.
package geom

import (
	"fmt"
	"math"
	"strings"
)

// MaxDim is the largest dimension the index accepts. IS's C-set selection
// keeps and scans a counter per quadrant, 2^d of them, for every neighbour it
// browses, and an octree node splits into 2^d children: one C-set costs
// ≈ 12 ms at d = 16, 196 ms and 8 MB at d = 20, 811 ms and 34 MB at d = 22,
// and at d = 28 its counters alone need 2 GB.
const MaxDim = 16

// CheckDim returns an error unless 1 ≤ d ≤ MaxDim.
func CheckDim(d int) error {
	if d < 1 || d > MaxDim {
		return fmt.Errorf("dimension %d is outside [1, %d]", d, MaxDim)
	}
	return nil
}

// Point is a d-dimensional point.
type Point []float64

// Clone returns a deep copy of p.
func (p Point) Clone() Point {
	q := make(Point, len(p))
	copy(q, p)
	return q
}

// Dim returns the dimensionality of p.
func (p Point) Dim() int { return len(p) }

// Equal reports whether p and q have identical coordinates.
func (p Point) Equal(q Point) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// IsFinite reports whether no coordinate of p is NaN or infinite.
func (p Point) IsFinite() bool {
	for _, x := range p {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// Dist returns the Euclidean distance between p and q.
func Dist(p, q Point) float64 {
	return math.Sqrt(Dist2(p, q))
}

// Dist2 returns the squared Euclidean distance between p and q.
func Dist2(p, q Point) float64 {
	var s float64
	for i := range p {
		d := p[i] - q[i]
		s += d * d
	}
	return s
}

// String renders p as "(x1, x2, ...)".
func (p Point) String() string {
	parts := make([]string, len(p))
	for i, v := range p {
		parts[i] = fmt.Sprintf("%g", v)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Rect is a d-dimensional axis-parallel rectangle, given by its lower-left
// and upper-right corners. A valid Rect has Lo[i] <= Hi[i] for every i;
// degenerate (zero-extent) dimensions are allowed and represent points or
// lower-dimensional slabs.
type Rect struct {
	Lo, Hi Point
}

// NewRect returns a rectangle with the given corners. It panics if the
// corners disagree in dimensionality or are inverted; index construction
// depends on rectangles being well-formed.
func NewRect(lo, hi Point) Rect {
	if len(lo) != len(hi) {
		panic(fmt.Sprintf("geom: corner dimensionality mismatch %d vs %d", len(lo), len(hi)))
	}
	for i := range lo {
		if lo[i] > hi[i] {
			panic(fmt.Sprintf("geom: inverted rectangle in dimension %d: [%g, %g]", i, lo[i], hi[i]))
		}
	}
	return Rect{Lo: lo, Hi: hi}
}

// PointRect returns the degenerate rectangle containing exactly p.
func PointRect(p Point) Rect {
	return Rect{Lo: p.Clone(), Hi: p.Clone()}
}

// Dim returns the dimensionality of r.
func (r Rect) Dim() int { return len(r.Lo) }

// Clone returns a deep copy of r.
func (r Rect) Clone() Rect {
	return Rect{Lo: r.Lo.Clone(), Hi: r.Hi.Clone()}
}

// Equal reports whether r and s are the same rectangle.
func (r Rect) Equal(s Rect) bool {
	return r.Lo.Equal(s.Lo) && r.Hi.Equal(s.Hi)
}

// Center returns the center point of r.
func (r Rect) Center() Point {
	c := make(Point, len(r.Lo))
	for i := range r.Lo {
		c[i] = (r.Lo[i] + r.Hi[i]) / 2
	}
	return c
}

// Side returns the extent of r in dimension j.
func (r Rect) Side(j int) float64 { return r.Hi[j] - r.Lo[j] }

// MaxSide returns the largest extent over all dimensions.
func (r Rect) MaxSide() float64 {
	var m float64
	for j := range r.Lo {
		if s := r.Side(j); s > m {
			m = s
		}
	}
	return m
}

// Volume returns the d-dimensional volume of r (area for d=2).
func (r Rect) Volume() float64 {
	v := 1.0
	for j := range r.Lo {
		v *= r.Side(j)
	}
	return v
}

// Margin returns the sum of the side lengths of r (the R*-tree "margin"
// criterion, up to the constant 2^(d-1) factor).
func (r Rect) Margin() float64 {
	var m float64
	for j := range r.Lo {
		m += r.Side(j)
	}
	return m
}

// Contains reports whether p lies inside r (boundaries inclusive).
func (r Rect) Contains(p Point) bool {
	for i := range p {
		if p[i] < r.Lo[i] || p[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

// ContainsRect reports whether s lies entirely inside r.
func (r Rect) ContainsRect(s Rect) bool {
	for i := range r.Lo {
		if s.Lo[i] < r.Lo[i] || s.Hi[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

// Intersects reports whether r and s share at least one point
// (touching boundaries count as intersection).
func (r Rect) Intersects(s Rect) bool {
	for i := range r.Lo {
		if r.Hi[i] < s.Lo[i] || s.Hi[i] < r.Lo[i] {
			return false
		}
	}
	return true
}

// Intersection returns the rectangle common to r and s. The second return
// value is false when the rectangles are disjoint.
func (r Rect) Intersection(s Rect) (Rect, bool) {
	lo := make(Point, len(r.Lo))
	hi := make(Point, len(r.Lo))
	for i := range r.Lo {
		lo[i] = math.Max(r.Lo[i], s.Lo[i])
		hi[i] = math.Min(r.Hi[i], s.Hi[i])
		if lo[i] > hi[i] {
			return Rect{}, false
		}
	}
	return Rect{Lo: lo, Hi: hi}, true
}

// Union returns the minimum bounding rectangle of r and s.
func (r Rect) Union(s Rect) Rect {
	lo := make(Point, len(r.Lo))
	hi := make(Point, len(r.Lo))
	for i := range r.Lo {
		lo[i] = math.Min(r.Lo[i], s.Lo[i])
		hi[i] = math.Max(r.Hi[i], s.Hi[i])
	}
	return Rect{Lo: lo, Hi: hi}
}

// Expand grows r by delta on every side (clipping at nothing). Negative
// deltas shrink; the result collapses to the center when over-shrunk.
func (r Rect) Expand(delta float64) Rect {
	lo := make(Point, len(r.Lo))
	hi := make(Point, len(r.Lo))
	for i := range r.Lo {
		lo[i] = r.Lo[i] - delta
		hi[i] = r.Hi[i] + delta
		if lo[i] > hi[i] {
			c := (r.Lo[i] + r.Hi[i]) / 2
			lo[i], hi[i] = c, c
		}
	}
	return Rect{Lo: lo, Hi: hi}
}

// MinDist returns the minimum Euclidean distance from p to any point of r;
// zero when p is inside r. This is distmin(o, p) of the paper for a
// rectangular uncertainty region.
func (r Rect) MinDist(p Point) float64 {
	return math.Sqrt(r.MinDist2(p))
}

// MinDist2 returns the squared minimum distance from p to r. The planar
// case is unrolled: it is the innermost call of every R*-tree descent,
// where the generic loop's bounds checks are measurable.
func (r Rect) MinDist2(p Point) float64 {
	if len(p) == 2 && len(r.Lo) == 2 && len(r.Hi) == 2 {
		d0 := axisMinDist(p[0], r.Lo[0], r.Hi[0])
		d1 := axisMinDist(p[1], r.Lo[1], r.Hi[1])
		return d0*d0 + d1*d1
	}
	var s float64
	for i := range p {
		d := axisMinDist(p[i], r.Lo[i], r.Hi[i])
		s += d * d
	}
	return s
}

// MaxDist returns the maximum Euclidean distance from p to any point of r,
// attained at the corner farthest from p. This is distmax(o, p) of the paper.
func (r Rect) MaxDist(p Point) float64 {
	return math.Sqrt(r.MaxDist2(p))
}

// MaxDist2 returns the squared maximum distance from p to r.
func (r Rect) MaxDist2(p Point) float64 {
	var s float64
	for i := range p {
		d := axisMaxDist(p[i], r.Lo[i], r.Hi[i])
		s += d * d
	}
	return s
}

// MinDistRect returns the minimum distance between any pair of points drawn
// from r and s (zero if the rectangles intersect).
func (r Rect) MinDistRect(s Rect) float64 {
	var sum float64
	for i := range r.Lo {
		var d float64
		switch {
		case s.Lo[i] > r.Hi[i]:
			d = s.Lo[i] - r.Hi[i]
		case r.Lo[i] > s.Hi[i]:
			d = r.Lo[i] - s.Hi[i]
		}
		sum += d * d
	}
	return math.Sqrt(sum)
}

// MaxDistRect returns the maximum distance between any pair of points drawn
// from r and s.
func (r Rect) MaxDistRect(s Rect) float64 {
	var sum float64
	for i := range r.Lo {
		d := math.Max(s.Hi[i]-r.Lo[i], r.Hi[i]-s.Lo[i])
		sum += d * d
	}
	return math.Sqrt(sum)
}

// axisMinDist is the 1-D distance from x to the interval [lo, hi].
func axisMinDist(x, lo, hi float64) float64 {
	switch {
	case x < lo:
		return lo - x
	case x > hi:
		return x - hi
	default:
		return 0
	}
}

// axisMaxDist is the 1-D distance from x to the farther endpoint of [lo, hi].
func axisMaxDist(x, lo, hi float64) float64 {
	// The builtin, not math.Max: same result (NaN and ±0 included), but it
	// compiles inline, which the domination kernel's inner loop depends on.
	return max(math.Abs(x-lo), math.Abs(x-hi))
}

// AxisMinDist2 returns the squared 1-D minimum distance from x to [lo, hi].
// Exported for the domination package's per-dimension decomposition.
func AxisMinDist2(x, lo, hi float64) float64 {
	d := axisMinDist(x, lo, hi)
	return d * d
}

// AxisMaxDist2 returns the squared 1-D maximum distance from x to [lo, hi].
func AxisMaxDist2(x, lo, hi float64) float64 {
	d := axisMaxDist(x, lo, hi)
	return d * d
}

// String renders r as "[lo; hi]".
func (r Rect) String() string {
	return "[" + r.Lo.String() + "; " + r.Hi.String() + "]"
}

// UnitCube returns the rectangle [0, side]^d.
func UnitCube(d int, side float64) Rect {
	lo := make(Point, d)
	hi := make(Point, d)
	for i := range hi {
		hi[i] = side
	}
	return Rect{Lo: lo, Hi: hi}
}
