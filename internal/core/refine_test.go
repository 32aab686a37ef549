package core

import (
	"math/rand"
	"testing"

	"pvoronoi/internal/bruteforce"
	"pvoronoi/internal/geom"
)

// TestEscalate checks the knob mapping: DepthBoost adds to the tester
// recursion depth, CSetFactor multiplies all three C-set quotas, and
// non-positive values leave the base untouched.
func TestEscalate(t *testing.T) {
	base := DefaultOptions()
	esc := Escalate(base, RefineOptions{DepthBoost: 4, CSetFactor: 3})
	if esc.MaxDepth != base.MaxDepth+4 {
		t.Fatalf("MaxDepth = %d, want %d", esc.MaxDepth, base.MaxDepth+4)
	}
	if esc.K != base.K*3 || esc.KPartition != base.KPartition*3 || esc.KGlobal != base.KGlobal*3 {
		t.Fatalf("C-set quotas not tripled: %+v", esc)
	}
	if esc.Delta != base.Delta || esc.Strategy != base.Strategy {
		t.Fatalf("escalation changed unrelated knobs: %+v", esc)
	}
	same := Escalate(base, RefineOptions{DepthBoost: 0, CSetFactor: 1})
	if same != base {
		t.Fatalf("no-op escalation altered options: %+v", same)
	}
}

// TestRefinerShrinkOnlyAndSound is the refinement pass's core contract:
// starting from the base SE UBR, the refined rectangle never grows, always
// contains the object's uncertainty region, and still contains every sampled
// point of the true PV-cell (conservativeness survives the deeper tester).
func TestRefinerShrinkOnlyAndSound(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	db := randomDB(rng, 80, 2, 1000, 40)
	tree := BuildRegionTree(db, 16)
	opts := optsWith(CSetIS)
	r := RefineOptions{DepthBoost: 4, CSetFactor: 4}
	for _, o := range db.Objects()[:16] {
		base, _ := ComputeUBR(db, tree, o, opts)
		rf := NewRefiner(db, tree, o, opts, r)
		refined, st := rf.Refine(base)
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

// TestRefinerDegenerateInputs covers the guards: an oldUBR that does not
// contain u(o) is returned untouched (refuse to shrink on bad input), and a
// single-object database (empty C-set, nil tester) keeps the old UBR and
// reports nothing prunable.
func TestRefinerDegenerateInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	db := randomDB(rng, 40, 2, 1000, 40)
	tree := BuildRegionTree(db, 16)
	opts := optsWith(CSetIS)
	o := db.Objects()[0]
	rf := NewRefiner(db, tree, o, opts, RefineOptions{DepthBoost: 2, CSetFactor: 2})
	bogus := geom.NewRect(geom.Point{0, 0}, geom.Point{1, 1})
	if got, _ := rf.Refine(bogus); !got.Equal(bogus) {
		t.Fatalf("bad oldUBR was shrunk: %v -> %v", bogus, got)
	}

	solo := randomDB(rand.New(rand.NewSource(33)), 1, 2, 1000, 40)
	soloTree := BuildRegionTree(solo, 16)
	so := solo.Objects()[0]
	srf := NewRefiner(solo, soloTree, so, optsWith(CSetIS), RefineOptions{DepthBoost: 2})
	domain := solo.Domain
	if got, _ := srf.Refine(domain); !got.Equal(domain) {
		t.Fatalf("single-object refinement shrank the domain UBR: %v", got)
	}
	if srf.Prunable(domain) {
		t.Fatal("nil-tester refiner claimed a region prunable")
	}
	if srf.Tests() != 0 {
		t.Fatalf("nil-tester refiner counted %d tests", srf.Tests())
	}
}
