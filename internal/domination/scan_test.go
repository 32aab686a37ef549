package domination

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"pvoronoi/internal/geom"
)

// scanInputs are the coordinate families of the scan differential: each
// draws one coordinate, and diffGen mixes its boxes into points, flat boxes,
// duplicates, nested boxes and boxes overlapping or equal to the target.
var scanInputs = []struct {
	name string
	draw func(*rand.Rand) float64
}{
	{"random", func(rng *rand.Rand) float64 { return rng.Float64() * 128 }},
	// Half units on [0, 16]: distances tie and sums cancel to exactly zero.
	{"half-unit", func(rng *rand.Rand) float64 { return float64(rng.Intn(33)) / 2 }},
	// Zeros of both signs beside their nearest neighbours, so that endpoints,
	// midpoints and differences are ±0 and boxes run from −0 to +0.
	{"signed-zero", func(rng *rand.Rand) float64 {
		return []float64{math.Copysign(0, -1), 0, 0.5, -0.5, 1, -1}[rng.Intn(6)]
	}},
	// Coordinates near 1e8, a few units apart: every square rounds.
	{"near-1e8", func(rng *rand.Rand) float64 { return 1e8 + float64(rng.Intn(129))/4 }},
}

// TestScansMatchGeneric: at d = 2 and d = 3 every scan the kernel makes —
// the stateless recursion's and ShrinkExpand's face probes', on the live
// ranges they really hand it — returns under the unrolled scan the hit index
// and the survivors, in order, that scanN returns on the same range; and
// whole runs, one tester on the unrolled scan and one on scanN, end in the
// same answers, tilings and Tests.
func TestScansMatchGeneric(t *testing.T) {
	for _, d := range []int{2, 3} {
		for _, in := range scanInputs {
			for _, n := range []int{1, 7, 64, 150} {
				name := fmt.Sprintf("d%d/%s/n%d", d, in.name, n)
				g := diffGen{rng: rand.New(rand.NewSource(int64(d*7919 + n))), d: d, draw: in.draw}
				for round := 0; round < 6; round++ {
					target := g.rect(0.1 * float64(round))
					cands := g.candidates(n, target)
					compareScans(t, fmt.Sprintf("%s/round%d", name, round), g, cands, target)
				}
			}
		}
	}
}

func compareScans(t *testing.T, name string, g diffGen, cands []geom.Rect, target geom.Rect) {
	t.Helper()
	const depth = 10
	unrolled, generic := NewTester(cands, target, depth), NewTester(cands, target, depth)
	generic.scan = (*Tester).scanN
	spec, scans := unrolled.scan, 0
	unrolled.scan = func(tt *Tester, from, to int, ubMin float64) (int, int) {
		wantHit, wantTop := tt.scanN(from, to, ubMin)
		want := slices.Clone(tt.live[to:wantTop])
		hit, top := spec(tt, from, to, ubMin)
		if hit != wantHit || !slices.Equal(tt.live[to:top], want) {
			t.Fatalf("%s: scan of live[%d:%d] = %v: hit %d, survivors %v; scanN: hit %d, survivors %v",
				name, from, to, tt.live[from:to], hit, tt.live[to:top], wantHit, want)
		}
		scans++
		return hit, top
	}

	for i := 0; i < 20; i++ {
		r := g.region(target, cands)
		if got, want := unrolled.RegionPrunable(r), generic.RegionPrunable(r); got != want || unrolled.Tests != generic.Tests {
			t.Fatalf("%s: region %v: unrolled %v after %d tests, scanN %v after %d", name, r, got, unrolled.Tests, want, generic.Tests)
		}
	}
	h := target.Clone()
	for _, c := range cands {
		h = h.Union(c)
	}
	for _, sched := range []Schedule{Bisect, FromH} {
		got, gotSteps, gotRec := recordedRun(unrolled, target, h, 0.25, sched)
		want, wantSteps, wantRec := recordedRun(generic, target, h, 0.25, sched)
		if !sameRect(got, want) || gotSteps != wantSteps || unrolled.Tests != generic.Tests || !slices.Equal(gotRec, wantRec) {
			t.Fatalf("%s: schedule %d: unrolled %v in %d steps and %d tests, scanN %v in %d steps and %d tests (tilings equal: %v)",
				name, sched, got, gotSteps, unrolled.Tests, want, wantSteps, generic.Tests, slices.Equal(gotRec, wantRec))
		}
	}
	if len(cands) > 0 && scans == 0 {
		t.Fatalf("%s: no scan ran", name)
	}
}

// identityValues are finite values on which an exact identity of the kernel
// would first fail: zeros of both signs, ties, halves, the smallest
// subnormal, and neighbours around 1e8 whose squares round.
var identityValues = []float64{
	math.Copysign(0, -1), 0, 5e-324, -5e-324, 0.5, -0.5, 1, -1, 2, 3, 16, 128,
	1e8, -1e8, math.Nextafter(1e8, 2e8), math.Nextafter(1e8, 0), 1e8 + 0.25, 1e8 + 128,
}

// TestKernelIdentities holds the scans' arithmetic to the specification's on
// identityValues, for every x and every interval lo ≤ hi drawn from them:
// far2 returns geom.AxisMaxDist2's bits; the branch-free clamp returns the
// if/else clamp's value, and far2 of it AxisMaxDist2's bits of the other;
// and the margin, summed over any three dimensions' terms, is the negated
// sum of Dominates, so each decides a candidate the same way.
func TestKernelIdentities(t *testing.T) {
	vs := identityValues
	ifElse := func(p, lo, hi float64) float64 {
		if p < lo {
			p = lo
		} else if p > hi {
			p = hi
		}
		return p
	}
	var squares []float64
	for _, lo := range vs {
		for _, hi := range vs {
			if lo > hi {
				continue
			}
			for _, x := range vs {
				got, want := far2(x, lo, hi), geom.AxisMaxDist2(x, lo, hi)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("far2(%v, %v, %v) = %v, AxisMaxDist2 = %v", x, lo, hi, got, want)
				}
				squares = append(squares, want)
				p, q := clamp(x, lo, hi), ifElse(x, lo, hi)
				if p != q {
					t.Fatalf("clamp(%v, %v, %v) = %v, the if/else clamp %v", x, lo, hi, p, q)
				}
				for _, alo := range vs {
					for _, ahi := range vs[:4] {
						if alo > ahi {
							continue
						}
						if a, b := far2(p, alo, ahi), geom.AxisMaxDist2(q, alo, ahi); math.Float64bits(a) != math.Float64bits(b) {
							t.Fatalf("far2 of clamp(%v, %v, %v) over [%v, %v] = %v, of the if/else clamp %v", x, lo, hi, alo, ahi, a, b)
						}
					}
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(56))
	pick := func() float64 { return squares[rng.Intn(len(squares))] }
	for i := 0; i < 200_000; i++ {
		var sum, margin float64
		for j := 0; j < 3; j++ {
			a, b, tlo, thi := pick(), pick(), pick(), pick()
			sum += max(a-tlo, b-thi)
			margin += min(tlo-a, thi-b)
		}
		if margin != -sum || (margin > 0) != (sum < 0) {
			t.Fatalf("margin %v against Dominates' sum %v", margin, sum)
		}
	}
}
