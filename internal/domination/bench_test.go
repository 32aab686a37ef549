package domination

import (
	"math/rand"
	"sort"
	"testing"

	"pvoronoi/internal/geom"
	"pvoronoi/internal/race"
)

// seScenario builds what one SE run hands the tester: a target at the centre
// of [0,10000]^d, n candidates of the synthetic datasets' extent scattered at
// uniform density around it and ordered nearest-first (as the C-set
// strategies deliver them), and the slabs the shrink/expand loop actually
// probes until every gap is below Δ=1.
func seScenario(d, n int, seed int64) (cands []geom.Rect, target geom.Rect, slabs []geom.Rect) {
	rng := rand.New(rand.NewSource(seed))
	box := func(center geom.Point) geom.Rect {
		lo, hi := make(geom.Point, d), make(geom.Point, d)
		for j := range lo {
			half := (1 + rng.Float64()*59) / 2
			lo[j], hi[j] = center[j]-half, center[j]+half
		}
		return geom.Rect{Lo: lo, Hi: hi}
	}
	center := make(geom.Point, d)
	for j := range center {
		center[j] = 5000
	}
	target = box(center)
	for len(cands) < n {
		c := make(geom.Point, d)
		for j := range c {
			c[j] = 5000 + (rng.Float64()-0.5)*3000
		}
		if r := box(c); !r.Intersects(target) {
			cands = append(cands, r)
		}
	}
	sort.Slice(cands, func(i, k int) bool {
		return cands[i].MinDistRect(target) < cands[k].MinDistRect(target)
	})

	tester := NewTester(cands, target, 10)
	l, h := target.Clone(), geom.UnitCube(d, 10000)
	probe := func(lo bool, j int) {
		slab := h.Clone()
		bound, inner, cut := &h.Hi[j], &l.Hi[j], &slab.Lo[j]
		if lo {
			bound, inner, cut = &h.Lo[j], &l.Lo[j], &slab.Hi[j]
		}
		mid := (*bound + *inner) / 2
		*cut = mid
		slabs = append(slabs, slab)
		if tester.RegionPrunable(slab) {
			*bound = mid
		} else {
			*inner = mid
		}
	}
	for again := true; again; {
		again = false
		for j := 0; j < d; j++ {
			if l.Lo[j]-h.Lo[j] >= 1 {
				probe(true, j)
				again = true
			}
			if h.Hi[j]-l.Hi[j] >= 1 {
				probe(false, j)
				again = true
			}
		}
	}
	return cands, target, slabs
}

func benchRegionPrunable(b *testing.B, d, n int) {
	cands, target, slabs := seScenario(d, n, 1)
	tester := NewTester(cands, target, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tester.RegionPrunable(slabs[i%len(slabs)])
	}
	b.ReportMetric(float64(tester.Tests)/float64(b.N), "tests/op")
}

// C-set sizes are the means the IS strategy produces on uniform data at each
// dimension (2^d quadrants × KPartition, capped by KGlobal).
func BenchmarkRegionPrunable2D(b *testing.B) { benchRegionPrunable(b, 2, 40) }
func BenchmarkRegionPrunable3D(b *testing.B) { benchRegionPrunable(b, 3, 140) }
func BenchmarkRegionPrunable5D(b *testing.B) { benchRegionPrunable(b, 5, 200) }

// TestRegionPrunableZeroAlloc: a tester owns every stack its recursion needs,
// so a call allocates nothing — at any dimension and at the escalated
// refinement depth; and once a first ShrinkExpand run has built the faces'
// memory, neither does a whole run, however many probes it makes.
func TestRegionPrunableZeroAlloc(t *testing.T) {
	for _, tc := range []struct{ d, n, depth int }{{2, 40, 10}, {3, 140, 10}, {5, 200, 14}} {
		cands, target, slabs := seScenario(tc.d, tc.n, 2)
		tester := NewTester(cands, target, tc.depth)
		i := 0
		allocs := testing.AllocsPerRun(len(slabs), func() {
			tester.RegionPrunable(slabs[i%len(slabs)])
			i++
		})
		l, h, domain := target.Clone(), geom.UnitCube(tc.d, 10000), geom.UnitCube(tc.d, 10000)
		run := func() {
			copy(l.Lo, target.Lo)
			copy(l.Hi, target.Hi)
			copy(h.Lo, domain.Lo)
			copy(h.Hi, domain.Hi)
			tester.ShrinkExpand(l, h, 1, Bisect)
		}
		run() // warm-up: builds the face memory
		probing := testing.AllocsPerRun(3, run)
		if race.Enabled {
			t.Skipf("allocs/call = %.1f and %.1f; budget not asserted under -race", allocs, probing)
		}
		if allocs != 0 {
			t.Errorf("d=%d depth=%d: RegionPrunable allocates %.1f times per call, want 0", tc.d, tc.depth, allocs)
		}
		if probing != 0 {
			t.Errorf("d=%d depth=%d: a warmed-up ShrinkExpand run allocates %.1f times, want 0", tc.d, tc.depth, probing)
		}
	}
}
