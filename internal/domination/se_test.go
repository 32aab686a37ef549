package domination

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"pvoronoi/internal/geom"
	"pvoronoi/internal/race"
)

// seKinds are the input families of the ShrinkExpand property test, on top of
// the degenerate relations diffGen.candidates always mixes in.
var seKinds = []string{"random", "sparse", "grid", "zero-extent", "coincident", "nested", "domain-touching"}

const seSpan = 128 // diffGen draws coordinates in [0, seSpan]

// small shrinks r to an eighth of its sides, towards its low corner.
func small(r geom.Rect) geom.Rect {
	for j := range r.Lo {
		r.Hi[j] = r.Lo[j] + r.Side(j)/8
	}
	return r
}

// seInput draws a target and n candidates of the given family. "sparse" is
// the shape of real data — small boxes, mostly disjoint, so h shrinks to a
// cell many candidates bound; the others stress ties and degeneracy.
func seInput(g diffGen, kind string, n int) (geom.Rect, []geom.Rect) {
	target := g.rect(0)
	switch kind {
	case "sparse":
		target = small(target)
	case "zero-extent":
		target = g.rect(1)
	case "domain-touching":
		for j := range target.Lo {
			if g.rng.Intn(2) == 0 {
				target.Lo[j] = 0
			} else {
				target.Hi[j] = seSpan
			}
		}
	}
	cands := g.candidates(n, target)
	for i := range cands {
		switch kind {
		case "sparse":
			cands[i] = small(g.rect(0))
		case "zero-extent":
			if i%2 == 0 {
				cands[i] = g.rect(1)
			}
		case "coincident":
			if i >= 3 {
				cands[i] = cands[g.rng.Intn(3)].Clone()
			}
		case "nested":
			if i > 0 {
				cands[i] = g.inside(cands[i-1])
			}
		case "domain-touching":
			if j := g.rng.Intn(g.d); i%2 == 0 {
				cands[i].Lo[j] = 0
			} else {
				cands[i].Hi[j] = seSpan
			}
		}
	}
	return target, cands
}

// seChecker watches one ShrinkExpand run through the tester's probe hook.
type seChecker struct {
	t      *testing.T
	name   string
	tester *Tester
	cands  []geom.Rect
	target geom.Rect
	rng    *rand.Rand
	// Probes the hook saw: prunable, and ones whose tiling outgrew leafCap;
	// per face, how many and whether the first one failed.
	prunable, overflows int
	probes              []int
	firstFailed         []bool
}

func rectOf(flat []float64, d int) geom.Rect {
	r := geom.Rect{Lo: make(geom.Point, d), Hi: make(geom.Point, d)}
	for j := 0; j < d; j++ {
		r.Lo[j], r.Hi[j] = flat[2*j], flat[2*j+1]
	}
	return r
}

func (c *seChecker) dominated(p geom.Point) bool {
	for _, cand := range c.cands {
		if PointDominated(cand, c.target, p) {
			return true
		}
	}
	return false
}

// plateVolume multiplies r's sides over the axes on which the plate has extent.
func plateVolume(r, plate geom.Rect) float64 {
	v := 1.0
	for j := range r.Lo {
		if plate.Side(j) > 0 {
			v *= r.Side(j)
		}
	}
	return v
}

// onProbe is the hook: the scratch slot holds the tiling a probe of face f has
// just assembled. Its leaves must tile the plate exactly — inside it,
// interiors pairwise disjoint, volumes summing to the plate's — and each
// leaf's list must hold every candidate the filter cannot rule out on (the
// leaf's lateral extent) × (the face's gap). If the probe said prunable, every
// leaf must satisfy the exported Dominates with its recorded dominator, and
// sampled points of the plate, which the caller is about to discard, must be
// dominated.
func (c *seChecker) onProbe(f int, prunable bool) {
	t, tt := c.t, c.tester
	d, m := tt.dim, tt.faces
	plate := rectOf(m.plate, d)
	s := m.covers[2*d]
	if prunable {
		c.prunable++
	}
	if c.probes[f]++; c.probes[f] == 1 {
		c.firstFailed[f] = !prunable
	}
	if s.overflow {
		c.overflows++
		return // decided, but the slot holds only part of the tiling
	}
	boxes := make([]geom.Rect, s.leaves)
	var sum float64
	for i := range boxes {
		flat, doms, set := tt.leaf(2*d, i)
		box, dom := rectOf(flat, d), doms[0]
		boxes[i] = box
		if !plate.ContainsRect(box) {
			t.Fatalf("%s: face %d leaf %d %v leaves the plate %v", c.name, f, i, box, plate)
		}
		for j := 0; j < d; j++ {
			if plate.Side(j) > 0 && box.Side(j) == 0 {
				t.Fatalf("%s: face %d leaf %d %v is flat where the plate %v is not", c.name, f, i, box, plate)
			}
		}
		if prunable && (dom < 0 || !Dominates(c.cands[dom], c.target, box)) {
			t.Fatalf("%s: face %d leaf %d %v is not dominated by its candidate %d (target %v, candidates %v)",
				c.name, f, i, box, dom, c.target, c.cands)
		}
		if dom >= 0 && set[dom>>6]&(1<<(dom&63)) == 0 {
			t.Fatalf("%s: face %d leaf %d: dominator %d is not in the leaf's list", c.name, f, i, dom)
		}
		wide := box.Clone()
		wide.Lo[tt.axis], wide.Hi[tt.axis] = tt.gapLo, tt.gapHi
		for k, cand := range c.cands {
			if set[k>>6]&(1<<(k&63)) == 0 && !CannotDominate(cand, c.target, wide) {
				t.Fatalf("%s: face %d leaf %d %v: candidate %d %v is missing from the list but may dominate in the gap [%v, %v]",
					c.name, f, i, box, k, cand, tt.gapLo, tt.gapHi)
			}
		}
		sum += plateVolume(box, plate)
		for k := 0; k < i; k++ {
			overlap := true
			for j := 0; j < d; j++ {
				if plate.Side(j) > 0 && !(max(box.Lo[j], boxes[k].Lo[j]) < min(box.Hi[j], boxes[k].Hi[j])) {
					overlap = false
				}
			}
			if overlap {
				t.Fatalf("%s: face %d leaves %d %v and %d %v overlap", c.name, f, k, boxes[k], i, box)
			}
		}
	}
	if want := plateVolume(plate, plate); math.Abs(sum-want) > 1e-9*want {
		t.Fatalf("%s: face %d: %d leaves of volume %v do not fill the plate %v of volume %v", c.name, f, s.leaves, sum, plate, want)
	}
	p := make(geom.Point, d)
	for n := 0; n < 24; n++ {
		for j := range p {
			switch x := c.rng.Intn(4); x {
			case 0:
				p[j] = plate.Lo[j]
			case 1:
				p[j] = plate.Hi[j]
			default:
				p[j] = plate.Lo[j] + c.rng.Float64()*plate.Side(j)
			}
		}
		if prunable && !c.dominated(p) {
			t.Fatalf("%s: face %d: point %v of the discarded plate %v is dominated by no candidate", c.name, f, p, plate)
		}
		inLeaf := false
		for _, box := range boxes {
			inLeaf = inLeaf || box.Contains(p)
		}
		if !inLeaf {
			t.Fatalf("%s: face %d: point %v of the plate %v is in no leaf", c.name, f, p, plate)
		}
	}
}

// checkedRun runs ShrinkExpand on copies of (l, h) with the hook attached and
// checks the result: l ⊆ h still and less than delta apart, and no sampled
// point of the initial h that lies in I(Cset, o) — dominated by no candidate —
// was cut off. From h, a face whose first plate failed was probed once and has
// not moved.
func checkedRun(t *testing.T, name string, tester *Tester, cands []geom.Rect, target, l, h geom.Rect, delta float64, sched Schedule, rng *rand.Rand) (result geom.Rect, iterations int) {
	t.Helper()
	d := len(h.Lo)
	c := &seChecker{t: t, name: name, tester: tester, cands: cands, target: target, rng: rng,
		probes: make([]int, 2*d), firstFailed: make([]bool, 2*d)}
	start := h.Clone()
	l, h = l.Clone(), h.Clone()
	tester.resetFace(0) // builds the memory the hook hangs on
	tester.faces.onProbe = c.onProbe
	iterations, shrinks := tester.ShrinkExpand(l, h, delta, sched)
	tester.faces.onProbe = nil
	seOverflows += c.overflows
	if shrinks != c.prunable {
		t.Fatalf("%s: %d shrinks but the hook saw %d prunable probes", name, shrinks, c.prunable)
	}
	if !h.ContainsRect(l) || !start.ContainsRect(h) || !(maxGap(l, h) < delta) {
		t.Fatalf("%s: bounds out of order or not within %v: l %v, h %v, initial h %v", name, delta, l, h, start)
	}
	for f := 0; sched == FromH && f < 2*d; f++ {
		moved := h.Lo[f/2] != start.Lo[f/2]
		if f&1 == 1 {
			moved = h.Hi[f/2] != start.Hi[f/2]
		}
		if c.firstFailed[f] && (c.probes[f] != 1 || moved) {
			t.Fatalf("%s: face %d failed its first plate but was probed %d times (moved: %v): initial h %v, h %v",
				name, f, c.probes[f], moved, start, h)
		}
	}
	p := make(geom.Point, d)
	for n := 0; n < 200; n++ {
		for j := range p {
			p[j] = start.Lo[j] + rng.Float64()*start.Side(j)
		}
		if !h.Contains(p) && !c.dominated(p) {
			t.Fatalf("%s: point %v is dominated by no candidate but outside the result %v", name, p, h)
		}
	}
	return h, iterations
}

// seOverflows counts, over all checked runs, the probes whose tiling outgrew
// leafCap.
var seOverflows int

func sameRect(a, b geom.Rect) bool {
	for j := range a.Lo {
		if math.Float64bits(a.Lo[j]) != math.Float64bits(b.Lo[j]) || math.Float64bits(a.Hi[j]) != math.Float64bits(b.Hi[j]) {
			return false
		}
	}
	return true
}

// TestShrinkExpandSound: on every input family, in every run shape SE is used
// in — cold, warm-started from an old UBR as h (probing from it) or as l, and a
// second run on a tester that has already served one (Refiner.Refine) — every
// cover the loop accepts is a complete proof, nothing of I(Cset, o) is cut
// off, and a reused tester behaves exactly like a fresh one. Over all inputs
// the runs from h end no looser than the stateless loop from the same bounds.
func TestShrinkExpandSound(t *testing.T) {
	domainOf := func(d int) geom.Rect { return geom.UnitCube(d, seSpan) }
	var fromH, ref float64 // Σ volume after the insert: probing from h, reference
	for _, d := range []int{1, 2, 3, 5, 6} {
		for _, n := range []int{0, 1, 7, 200} {
			for ki, kind := range seKinds {
				if race.Enabled && d > 3 && n > 7 {
					continue // minutes under the detector; CI's uninstrumented step runs them
				}
				name := fmt.Sprintf("d%d/n%d/%s", d, n, kind)
				rng := rand.New(rand.NewSource(int64(d*7919 + n*131 + ki)))
				g := diffGen{rng: rng, d: d, grid: ki > 1}
				depth := []int{10, 4, 13}[ki%3]
				rounds := 3
				if d > 3 && n > 7 {
					rounds = 1
				}
				for round := 0; round < rounds; round++ {
					target, cands := seInput(g, kind, n)
					domain := domainOf(d)
					delta := []float64{1, 0.01, 16}[round%3]
					tester := NewTester(cands, target, depth)

					cold, _ := checkedRun(t, name+"/cold", tester, cands, target, target, domain, delta, Bisect, rng)

					// Warm start from above: more candidates, old UBR as h.
					more := append(append([]geom.Rect{}, cands...), g.candidates(1+n/4, target)...)
					warm := NewTester(more, target, depth)
					back, _ := checkedRun(t, name+"/afterInsert", warm, more, target, target, cold, delta, FromH, rng)
					rh := cold.Clone()
					refShrinkExpand(NewTester(more, target, depth), target.Clone(), rh, delta)
					fromH, ref = fromH+back.Volume(), ref+rh.Volume()

					// Warm start from below: fewer candidates, old UBR as l.
					fewer := cands[:n/2]
					checkedRun(t, name+"/afterDelete", NewTester(fewer, target, depth), fewer, target, cold, domain, delta, Bisect, rng)

					// A second run on the used tester from an unrelated h
					// must be the run a fresh tester makes.
					other := target.Union(g.rect(0))
					before := tester.Tests
					sched := Schedule(round % 2)
					again, steps := checkedRun(t, name+"/reused", tester, cands, target, target, other, delta, sched, rng)
					fresh := NewTester(cands, target, depth)
					want, wantSteps := checkedRun(t, name+"/fresh", fresh, cands, target, target, other, delta, sched, rng)
					if !sameRect(again, want) || steps != wantSteps || tester.Tests-before != fresh.Tests {
						t.Fatalf("%s: a reused tester gives %v in %d steps and %d tests, a fresh one %v in %d steps and %d tests",
							name, again, steps, tester.Tests-before, want, wantSteps, fresh.Tests)
					}
				}
			}
		}
	}
	t.Logf("after an insert, from h: Σ volume %+.3f %% of the stateless loop's", 100*(fromH/ref-1))
	if fromH > 1.005*ref {
		t.Errorf("probing from h: Σ volume %g exceeds 1.005 × the stateless loop's %g", fromH, ref)
	}
}

// TestShrinkExpandOverflow: at d = 5 with 200 candidates some tilings outgrow
// leafCap; the probe's answer must still be a complete proof (the run's final
// check) and the face must recover by starting over.
func TestShrinkExpandOverflow(t *testing.T) {
	cands, target, _ := seScenario(5, 200, 3)
	rng := rand.New(rand.NewSource(5))
	before := seOverflows
	checkedRun(t, "overflow", NewTester(cands, target, 10), cands, target, target, geom.UnitCube(5, 10000), 1, Bisect, rng)
	if seOverflows == before {
		t.Fatalf("no tiling outgrew leafCap = %d: the test no longer reaches the overflow path", leafCap)
	}
}

// TestFirstProbesMatchReference: a face's first probe is the plain recursion
// at full depth, and filtering on the gap instead of the plate only adds
// candidates to lists, so a run short enough that every probe is a first
// probe — Δ just above half the largest gap: one round — decides every plate
// as the stateless loop does.
func TestFirstProbesMatchReference(t *testing.T) {
	for _, d := range []int{1, 2, 3, 5} {
		for _, depth := range []int{0, 1, 3, 10} {
			rng := rand.New(rand.NewSource(int64(d*100 + depth)))
			for round := 0; round < 40; round++ {
				g := diffGen{rng: rng, d: d, grid: round%2 == 0}
				target, cands := seInput(g, seKinds[round%len(seKinds)], 1+rng.Intn(40))
				domain := geom.UnitCube(d, seSpan)
				delta := 0.51 * refMaxGap(target, domain)
				l, h := target.Clone(), domain.Clone()
				steps, shrinks := NewTester(cands, target, depth).ShrinkExpand(l, h, delta, Bisect)
				rl, rh := target.Clone(), domain.Clone()
				rsteps, rshrinks := refShrinkExpand(NewTester(cands, target, depth), rl, rh, delta)
				if !sameRect(h, rh) || !sameRect(l, rl) || steps != rsteps || shrinks != rshrinks {
					t.Fatalf("d=%d depth=%d round %d: first probes give h %v l %v (%d steps, %d shrinks), the stateless loop h %v l %v (%d, %d)",
						d, depth, round, h, l, steps, shrinks, rh, rl, rsteps, rshrinks)
				}
			}
		}
	}
}

// FuzzShrinkExpandSound runs the checks of TestShrinkExpandSound on packed
// inputs (fuzzCase: half-unit coordinates, so ties are the rule): a cold run
// from the bounding box of everything, then a second run on the same tester
// warm-started from the first result — each on a fuzzed schedule (bit 0 the
// first run's, bit 1 the second's): any schedule is sound from any l ⊆ h.
func FuzzShrinkExpandSound(f *testing.F) {
	f.Add(byte(1), byte(10), byte(2), []byte{20, 22, 0, 80, 40, 44, 0, 4, 60, 70})
	f.Add(byte(0), byte(0), byte(1), []byte{10, 10, 10, 10, 10, 10, 30, 30})
	f.Add(byte(1), byte(3), byte(3), []byte{16, 24, 16, 24, 0, 64, 0, 64, 32, 40, 16, 24, 16, 24, 32, 40, 0, 8, 16, 24, 16, 24, 0, 8, 32, 40, 32, 40})
	f.Add(byte(2), byte(4), byte(0), []byte{8, 16, 8, 16, 8, 16, 0, 255, 0, 255, 0, 255, 8, 16, 8, 16, 8, 16, 32, 40, 8, 16, 8, 16, 8, 16, 32, 40, 8, 16})
	f.Fuzz(func(t *testing.T, dByte, depthByte, schedByte byte, data []byte) {
		d, depth, target, region, cands := fuzzCase(dByte, depthByte, data)
		if target.Dim() == 0 {
			return
		}
		h := target.Union(region)
		for _, c := range cands {
			h = h.Union(c)
		}
		delta := 0.25 + float64(len(data)%5)
		rng := rand.New(rand.NewSource(int64(len(data))*31 + int64(d)))
		tester := NewTester(cands, target, depth)
		first, _ := checkedRun(t, "first", tester, cands, target, target, h, delta, Schedule(schedByte&1), rng)
		checkedRun(t, "again", tester, cands, target, target, first, delta/4, Schedule(schedByte>>1&1), rng)

		// Reset onto other inputs — a larger C-set, a smaller one under
		// another target, another dimension — must leave the tester exactly
		// as a fresh one.
		third := len(data) / 3
		_, _, target2, region2, cands2 := fuzzCase(dByte, depthByte, append(slices.Clone(data[third:]), data[:third]...))
		_, _, target3, _, cands3 := fuzzCase(dByte+1, depthByte, data)
		for i, next := range []struct {
			target geom.Rect
			cands  []geom.Rect
		}{
			{target2, append(slices.Clip(cands), cands2...)},
			{region2, cands[:len(cands)/2]},
			{target3, cands3},
		} {
			if next.target.Dim() == 0 {
				continue
			}
			h := next.target.Clone()
			for _, c := range next.cands {
				h = h.Union(c)
			}
			assertResetMatchesFresh(t, fmt.Sprintf("reset %d", i), tester, next.cands, next.target, h, delta, Schedule(schedByte&1), depth)
		}
	})
}

// recordedRun runs ShrinkExpand on copies of l and h and records, as bits,
// every probe's face and answer and the tiling it assembled: leaf boxes,
// dominators and lists.
func recordedRun(tt *Tester, l, h geom.Rect, delta float64, sched Schedule) (geom.Rect, int, []uint64) {
	var rec []uint64
	l, h = l.Clone(), h.Clone()
	tt.resetFace(0) // builds the memory the hook hangs on
	tt.faces.onProbe = func(f int, prunable bool) {
		m := tt.faces
		s := m.covers[2*tt.dim]
		rec = append(rec, uint64(f), uint64(s.leaves))
		if prunable {
			rec = append(rec, 1)
		}
		for i := 0; i < s.leaves; i++ {
			box, dom, set := tt.leaf(2*tt.dim, i)
			for _, x := range box[:2*tt.dim] {
				rec = append(rec, math.Float64bits(x))
			}
			rec = append(append(rec, uint64(dom[0])), set[:m.words]...)
		}
	}
	steps, _ := tt.ShrinkExpand(l, h, delta, sched)
	tt.faces.onProbe = nil
	return h, steps, rec
}

// assertResetMatchesFresh resets the used tester onto (cands, target, depth)
// and requires of it what a fresh NewTester does: the same SE run — result,
// steps, every probe's answer and tiling — the same answer on a stateless
// probe, and the same test counts. A stale bit left in a list by an earlier,
// larger C-set is what this must catch.
func assertResetMatchesFresh(t *testing.T, name string, used *Tester, cands []geom.Rect, target, h geom.Rect, delta float64, sched Schedule, depth int) {
	t.Helper()
	fresh := NewTester(cands, target, depth)
	used.Reset(cands, target, depth)
	got, gotSteps, gotRec := recordedRun(used, target, h, delta, sched)
	want, wantSteps, wantRec := recordedRun(fresh, target, h, delta, sched)
	if !sameRect(got, want) || gotSteps != wantSteps || used.Tests != fresh.Tests || !slices.Equal(gotRec, wantRec) {
		t.Fatalf("%s (d=%d, n=%d): a reset tester gives %v in %d steps and %d tests, a fresh one %v in %d steps and %d tests (tilings equal: %v)",
			name, target.Dim(), len(cands), got, gotSteps, used.Tests, want, wantSteps, fresh.Tests, slices.Equal(gotRec, wantRec))
	}
	probe := h.Clone()
	probe.Hi[0] = (probe.Lo[0] + probe.Hi[0]) / 2
	if a, b := used.RegionPrunable(probe), fresh.RegionPrunable(probe); a != b || used.Tests != fresh.Tests {
		t.Fatalf("%s: on %v a reset tester answers %v after %d tests, a fresh one %v after %d", name, probe, a, used.Tests, b, fresh.Tests)
	}
}

// TestTesterResetMatchesFresh: one tester, reset onto C-sets that grow and
// shrink across the 64-candidate word boundary and onto every dimension in
// turn, decides every probe, counts every test and tiles every face exactly
// like a fresh tester over the same input.
func TestTesterResetMatchesFresh(t *testing.T) {
	used := new(Tester)
	rng := rand.New(rand.NewSource(36))
	for round := 0; round < 3; round++ {
		for _, d := range []int{1, 2, 3, 5} {
			for _, n := range []int{130, 7, 64, 65, 1, 0} {
				if race.Enabled && d == 5 && n > 64 {
					continue
				}
				kind := seKinds[(round+n)%len(seKinds)]
				g := diffGen{rng: rng, d: d, grid: round == 1}
				target, cands := seInput(g, kind, n)
				domain := geom.UnitCube(d, seSpan)
				depth := []int{10, 4, 13}[round]
				name := fmt.Sprintf("round %d/d%d/n%d/%s", round, d, n, kind)
				assertResetMatchesFresh(t, name, used, cands, target, domain, []float64{1, 0.01, 16}[round], Schedule(n%2), depth)
			}
		}
	}
}
