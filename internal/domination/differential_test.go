package domination

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pvoronoi/internal/geom"
)

// diffGen draws the rectangles the differential test feeds both testers.
// With grid set every coordinate is a multiple of 8 in [0,128], so distances
// tie, sums cancel to exactly zero and bisection midpoints land on other
// rectangles' faces — the inputs on which a reordered sum or a < turned <=
// would first disagree. A non-nil draw replaces both.
type diffGen struct {
	rng  *rand.Rand
	d    int
	grid bool
	draw func(*rand.Rand) float64
}

func (g diffGen) coord() float64 {
	switch {
	case g.draw != nil:
		return g.draw(g.rng)
	case g.grid:
		return float64(g.rng.Intn(17)) * 8
	}
	return g.rng.Float64() * 128
}

// rect returns a random rectangle; each dimension collapses to zero extent
// with probability flat.
func (g diffGen) rect(flat float64) geom.Rect {
	lo, hi := make(geom.Point, g.d), make(geom.Point, g.d)
	for j := range lo {
		a, b := g.coord(), g.coord()
		lo[j], hi[j] = min(a, b), max(a, b)
		if g.rng.Float64() < flat {
			hi[j] = lo[j]
		}
	}
	return geom.Rect{Lo: lo, Hi: hi}
}

// inside returns a rectangle nested in r (possibly touching its faces).
func (g diffGen) inside(r geom.Rect) geom.Rect {
	out := r.Clone()
	for j := range out.Lo {
		q := r.Side(j) / 4
		out.Lo[j] += q * float64(g.rng.Intn(2))
		out.Hi[j] -= q * float64(g.rng.Intn(2))
	}
	return out
}

// candidates mixes plain random rectangles with the degenerate relations the
// kernel must not treat specially: points and flat boxes, exact duplicates,
// nested rectangles, and candidates that overlap or equal the target (which
// can dominate nothing, by Lemma 2).
func (g diffGen) candidates(n int, target geom.Rect) []geom.Rect {
	cands := make([]geom.Rect, 0, n)
	for len(cands) < n {
		switch k := g.rng.Intn(10); {
		case k == 0:
			cands = append(cands, g.rect(1))
		case k == 1:
			cands = append(cands, g.rect(0.5))
		case k == 2 && len(cands) > 0:
			cands = append(cands, cands[g.rng.Intn(len(cands))].Clone())
		case k == 3 && len(cands) > 0:
			cands = append(cands, g.inside(cands[g.rng.Intn(len(cands))]))
		case k == 4:
			cands = append(cands, g.inside(target))
		case k == 5:
			cands = append(cands, target.Union(g.rect(0)))
		default:
			cands = append(cands, g.rect(0))
		}
	}
	return cands
}

func (g diffGen) region(target geom.Rect, cands []geom.Rect) geom.Rect {
	switch k := g.rng.Intn(8); {
	case k == 0:
		return g.rect(1)
	case k == 1:
		return g.rect(0.5)
	case k == 2:
		return target.Clone()
	case k == 3 && len(cands) > 0:
		return cands[g.rng.Intn(len(cands))].Clone()
	case k == 4:
		return geom.UnitCube(g.d, 128)
	default:
		return g.rect(0)
	}
}

// TestTesterMatchesReference: on every input the flat kernel must return the
// reference's boolean and have counted exactly the reference's tests — after
// every call of a tester reused across regions, and from a fresh tester.
func TestTesterMatchesReference(t *testing.T) {
	for _, d := range []int{1, 2, 3, 5, 6} {
		for _, depth := range []int{0, 1, 4, 10, 13} {
			for _, n := range []int{0, 1, 7, 200} {
				for _, grid := range []bool{false, true} {
					name := fmt.Sprintf("d%d/depth%d/n%d/grid=%v", d, depth, n, grid)
					seed := int64(d*1000003 + depth*10007 + n*101)
					g := diffGen{rng: rand.New(rand.NewSource(seed)), d: d, grid: grid}
					for round := 0; round < 3; round++ {
						target := g.rect(0.1 * float64(round))
						cands := g.candidates(n, target)
						reused := NewTester(cands, target, depth)
						ref := newRefTester(cands, target, depth)
						// Deep recursions over 200 candidates cost up to
						// 2^depth·n reference tests per region: stop a
						// round once it has bought enough comparisons.
						for i := 0; i < 40 && ref.Tests < 400_000; i++ {
							r := g.region(target, cands)
							before := reused.Tests
							want, got := ref.RegionPrunable(r), reused.RegionPrunable(r)
							if got != want || reused.Tests != ref.Tests {
								t.Fatalf("%s round %d region %d %v: reused tester = %v after %d tests, reference = %v after %d",
									name, round, i, r, got, reused.Tests, want, ref.Tests)
							}
							fresh := NewTester(cands, target, depth)
							if got := fresh.RegionPrunable(r); got != want || fresh.Tests != reused.Tests-before {
								t.Fatalf("%s round %d region %d %v: fresh tester = %v in %d tests, reused = %v in %d",
									name, round, i, r, got, fresh.Tests, want, reused.Tests-before)
							}
						}
					}
				}
			}
		}
	}
}

// fuzzCase decodes a fuzz input: d ∈ [1,6], depth ∈ [0,13], and one byte per
// coordinate in half-units (so ties are common) — target, region, then up to
// 48 candidates, each as d (lo, hi) pairs, swapped into order. Byte 0 is −0
// as a pair's first byte and +0 as its second, so zeros of both signs reach
// the kernel.
func fuzzCase(dByte, depthByte byte, data []byte) (d, depth int, target, region geom.Rect, cands []geom.Rect) {
	d, depth = 1+int(dByte)%6, int(depthByte)%14
	next := func() (geom.Rect, bool) {
		if len(data) < 2*d {
			return geom.Rect{}, false
		}
		lo, hi := make(geom.Point, d), make(geom.Point, d)
		for j := range lo {
			a, b := float64(data[2*j])/2, float64(data[2*j+1])/2
			if a == 0 {
				a = math.Copysign(0, -1)
			}
			lo[j], hi[j] = min(a, b), max(a, b)
		}
		data = data[2*d:]
		return geom.Rect{Lo: lo, Hi: hi}, true
	}
	var ok bool
	if target, ok = next(); !ok {
		return d, depth, target, region, nil
	}
	if region, ok = next(); !ok {
		region = target.Clone()
	}
	for len(cands) < 48 {
		c, ok := next()
		if !ok {
			break
		}
		cands = append(cands, c)
	}
	return d, depth, target, region, cands
}

// FuzzRegionPrunable asserts the differential equality on arbitrary packed
// inputs, and soundness: a region reported prunable has every sampled point
// dominated by some candidate.
func FuzzRegionPrunable(f *testing.F) {
	f.Add(byte(1), byte(10), []byte{0, 2, 40, 44, 20, 22})                                    // Fig. 6(a): single dominator
	f.Add(byte(1), byte(12), []byte{0, 0, 2, 2, 48, 50, 0, 44, 40, 42, 20, 22, 40, 42, 0, 2}) // needs partitioning
	f.Add(byte(0), byte(0), []byte{10, 10, 10, 10, 10, 10})                                   // all points, coincident
	f.Add(byte(2), byte(4), []byte{8, 16, 8, 16, 8, 16, 0, 255, 0, 255, 0, 255, 8, 16, 8, 16, 8, 16, 32, 40, 8, 16, 8, 16})
	// d = 2 and d = 3 beside a target at the origin: −0 and +0 endpoints,
	// boxes from −0 to +0, and candidates whose sides tie the region's; the
	// second candidate dominates the region.
	f.Add(byte(1), byte(10), []byte{0, 4, 0, 4, 16, 24, 0, 4, 0, 0, 16, 24, 12, 12, 0, 0, 12, 12, 0, 4})
	f.Add(byte(2), byte(10), []byte{0, 4, 0, 4, 0, 4, 16, 24, 0, 4, 0, 0, 0, 0, 0, 0, 16, 24, 12, 12, 0, 0, 4, 4, 12, 12, 0, 4, 0, 0})
	f.Fuzz(func(t *testing.T, dByte, depthByte byte, data []byte) {
		d, depth, target, region, cands := fuzzCase(dByte, depthByte, data)
		if target.Dim() == 0 {
			return
		}
		tester, ref := NewTester(cands, target, depth), newRefTester(cands, target, depth)
		// Twice: the second call runs on stacks the first one dirtied.
		for pass := 0; pass < 2; pass++ {
			want, got := ref.RegionPrunable(region), tester.RegionPrunable(region)
			if got != want || tester.Tests != ref.Tests {
				t.Fatalf("pass %d: d=%d depth=%d target=%v region=%v cands=%v: got %v after %d tests, reference %v after %d",
					pass, d, depth, target, region, cands, got, tester.Tests, want, ref.Tests)
			}
		}
		if !tester.RegionPrunable(region) {
			return
		}
		// Corners, centre and face midpoints of the region: 3^d lattice.
		p := make(geom.Point, d)
		for code := 0; code < pow3(d); code++ {
			for j, c := 0, code; j < d; j, c = j+1, c/3 {
				p[j] = region.Lo[j] + float64(c%3)/2*region.Side(j)
			}
			dominated := false
			for _, c := range cands {
				if PointDominated(c, target, p) {
					dominated = true
					break
				}
			}
			if !dominated {
				t.Fatalf("over-pruned: d=%d depth=%d target=%v region=%v cands=%v: point %v dominated by no candidate",
					d, depth, target, region, cands, p)
			}
		}
	})
}

func pow3(d int) int {
	n := 1
	for ; d > 0; d-- {
		n *= 3
	}
	return n
}
