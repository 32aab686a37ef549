package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pvoronoi/internal/bruteforce"
	"pvoronoi/internal/dataset"
	"pvoronoi/internal/geom"
	"pvoronoi/internal/uncertain"
)

// TestEscalate checks refinement's escalation: four more levels of tester
// recursion, four times all three C-set quotas, every other knob untouched.
func TestEscalate(t *testing.T) {
	base := DefaultOptions()
	esc := escalated(base)
	if esc.MaxDepth != base.MaxDepth+4 {
		t.Fatalf("MaxDepth = %d, want %d", esc.MaxDepth, base.MaxDepth+4)
	}
	if esc.K != base.K*4 || esc.KPartition != base.KPartition*4 || esc.KGlobal != base.KGlobal*4 {
		t.Fatalf("C-set quotas not quadrupled: %+v", esc)
	}
	if esc.Delta != base.Delta || esc.Strategy != base.Strategy {
		t.Fatalf("escalation changed unrelated knobs: %+v", esc)
	}
}

// TestRefineUBRMatchesRefiner holds RefineUBR to the Refiner it replaced
// (reference_test.go) at the escalation production used (+4 depth, ×4
// quotas): the same UBR bits and the same counts — rows, C-set size,
// iterations, shrinks and domination tests — on uniform and clustered data
// in d = 2, 3 and 4, starting from every sampled object's cold UBR.
func TestRefineUBRMatchesRefiner(t *testing.T) {
	for _, clustered := range []bool{false, true} {
		for _, d := range []int{2, 3, 4} {
			t.Run(fmt.Sprintf("clustered=%v/d%d", clustered, d), func(t *testing.T) {
				db := dataset.Synthetic(dataset.SyntheticParams{N: 600, Dim: d, Seed: int64(60 + d), Clustered: clustered})
				tree := BuildRegionTree(db, 32)
				opts := DefaultOptions()
				shrunk, samples := 0, map[int]int{2: 30, 3: 15, 4: 10}[d]
				for i := 0; i < 600; i += 600 / samples {
					o := db.Get(uncertain.ID(i))
					stored, _ := ComputeUBR(db, tree, o, opts)
					rf := NewRefiner(db, tree, o, opts, RefineOptions{DepthBoost: 4, CSetFactor: 4})
					want, wst := rf.Refine(stored)
					wantTests := rf.Tests()
					rf.Release()
					got, gst := RefineUBR(db, tree, o, stored, opts)
					if !sameBits(got, want) {
						t.Fatalf("object %d: RefineUBR %v, Refiner %v", o.ID, got, want)
					}
					g, w := gst.Refine, wst.Refine
					g.Time, w.Time = 0, 0
					if g != w || gst.DominationTests != 0 || g.DominationTests != wantTests {
						t.Fatalf("object %d: RefineUBR counts %+v, Refiner %+v (%d tests)", o.ID, gst, wst, wantTests)
					}
					if !got.Equal(stored) {
						shrunk++
					}
				}
				t.Logf("%d rows tightened", shrunk)
			})
		}
	}
}

// sameBits reports whether two rectangles agree bit for bit.
func sameBits(a, b geom.Rect) bool {
	for j := range a.Lo {
		if math.Float64bits(a.Lo[j]) != math.Float64bits(b.Lo[j]) || math.Float64bits(a.Hi[j]) != math.Float64bits(b.Hi[j]) {
			return false
		}
	}
	return len(a.Lo) == len(b.Lo)
}

// TestRefineUBRShrinkOnlyAndSound is the escalated re-run's core contract:
// starting from the base SE UBR, the refined rectangle never grows, always
// contains the object's uncertainty region, and still contains every sampled
// point of the true PV-cell (conservativeness survives the deeper tester),
// bisecting (RefineUBR) and probing from h (RefineUBRFromH) alike.
func TestRefineUBRShrinkOnlyAndSound(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	db := randomDB(rng, 80, 2, 1000, 40)
	tree := BuildRegionTree(db, 16)
	opts := optsWith(CSetIS)
	for i, o := range db.Objects()[:32] {
		base, _ := ComputeUBR(db, tree, o, opts)
		refined, st := RefineUBR(db, tree, o, base, opts)
		if i%2 == 1 {
			refined, st = RefineUBRFromH(db, tree, o, o.Region, base, opts)
		}
		if !base.ContainsRect(refined) {
			t.Fatalf("object %d: refined UBR %v escapes base %v", o.ID, refined, base)
		}
		if !refined.ContainsRect(o.Region) {
			t.Fatalf("object %d: refined UBR %v lost u(o) %v", o.ID, refined, o.Region)
		}
		if st.Refine.Rows != 1 {
			t.Fatalf("object %d: Refine.Rows = %d, want 1", o.ID, st.Refine.Rows)
		}
		// Refinement work must land in the Refine block, not the base-pass
		// counters (the Stats split the batch attribution depends on).
		if st.Iterations != 0 || st.DominationTests != 0 || st.Shrinks != 0 {
			t.Fatalf("object %d: refinement leaked into base counters: %+v", o.ID, st)
		}
		if st.Refine.Iterations == 0 || st.Refine.DominationTests == 0 {
			t.Fatalf("object %d: refinement did no work: %+v", o.ID, st.Refine)
		}
		// The wall time covers that work and the escalated C-set selection
		// (it was once set on a copy and always read 0).
		if st.Refine.Time <= 0 {
			t.Fatalf("object %d: %d refinement tests in Refine.Time = %v", o.ID, st.Refine.DominationTests, st.Refine.Time)
		}
		for s := 0; s < 300; s++ {
			p := geom.Point{rng.Float64() * 1000, rng.Float64() * 1000}
			if bruteforce.InPVCell(db, o.ID, p) && !refined.Contains(p) {
				t.Fatalf("object %d: PV-cell point %v outside refined UBR %v",
					o.ID, p, refined)
			}
		}
	}
}

// TestRefineUBRDegenerateInputs covers the guards: a stored UBR that does not
// contain u(o) is returned untouched (refuse to shrink on bad input), and a
// single-object database (empty C-set) keeps the stored UBR.
func TestRefineUBRDegenerateInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	db := randomDB(rng, 40, 2, 1000, 40)
	tree := BuildRegionTree(db, 16)
	opts := optsWith(CSetIS)
	o := db.Objects()[0]
	bogus := geom.NewRect(geom.Point{0, 0}, geom.Point{1, 1})
	if got, _ := RefineUBR(db, tree, o, bogus, opts); !got.Equal(bogus) {
		t.Fatalf("bad stored UBR was shrunk: %v -> %v", bogus, got)
	}

	solo := randomDB(rand.New(rand.NewSource(33)), 1, 2, 1000, 40)
	soloTree := BuildRegionTree(solo, 16)
	domain := solo.Domain
	got, st := RefineUBR(solo, soloTree, solo.Objects()[0], domain, opts)
	if !got.Equal(domain) {
		t.Fatalf("single-object refinement shrank the domain UBR: %v", got)
	}
	if st.Refine.DominationTests != 0 {
		t.Fatalf("empty C-set counted %d tests", st.Refine.DominationTests)
	}
}
