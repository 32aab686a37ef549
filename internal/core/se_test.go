package core

import (
	"math/rand"
	"slices"
	"testing"

	"pvoronoi/internal/bruteforce"
	"pvoronoi/internal/geom"
	"pvoronoi/internal/uncertain"
)

// randomDB builds a database of n objects with uniformly placed rectangular
// regions of max side maxSide inside [0, span]^d.
func randomDB(rng *rand.Rand, n, d int, span, maxSide float64) *uncertain.DB {
	db := uncertain.NewDB(geom.UnitCube(d, span))
	for i := 0; i < n; i++ {
		lo := make(geom.Point, d)
		hi := make(geom.Point, d)
		for j := 0; j < d; j++ {
			lo[j] = rng.Float64() * (span - maxSide)
			hi[j] = lo[j] + 1 + rng.Float64()*(maxSide-1)
		}
		_ = db.Add(&uncertain.Object{ID: uncertain.ID(i), Region: geom.Rect{Lo: lo, Hi: hi}})
	}
	return db
}

func optsWith(s CSetStrategy) Options {
	o := DefaultOptions()
	o.Strategy = s
	o.K = 20
	o.KPartition = 3
	o.KGlobal = 30
	return o
}

// TestUBRConservative is the central correctness property: the UBR returned
// by SE must contain every point of the true PV-cell, for every strategy.
func TestUBRConservative(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for _, d := range []int{2, 3} {
		db := randomDB(rng, 60, d, 1000, 40)
		tree := BuildRegionTree(db, 16)
		for _, strat := range []CSetStrategy{CSetAll, CSetFS, CSetIS} {
			opts := optsWith(strat)
			for _, o := range db.Objects()[:12] {
				ubr, _ := ComputeUBR(db, tree, o, opts)
				if !ubr.ContainsRect(o.Region) {
					t.Fatalf("d=%d %v: UBR %v does not contain u(o) %v", d, strat, ubr, o.Region)
				}
				// Sample domain points; any point in V(o) must be in the UBR.
				for s := 0; s < 400; s++ {
					p := make(geom.Point, d)
					for j := range p {
						p[j] = rng.Float64() * 1000
					}
					if bruteforce.InPVCell(db, o.ID, p) && !ubr.Contains(p) {
						t.Fatalf("d=%d %v: PV-cell point %v of object %d outside UBR %v",
							d, strat, p, o.ID, ubr)
					}
				}
			}
		}
	}
}

// TestUBRConservativeDensePVBoundary probes points near the UBR boundary,
// where an over-eager shrink would first show up.
func TestUBRConservativeDensePVBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	db := randomDB(rng, 40, 2, 500, 25)
	tree := BuildRegionTree(db, 16)
	opts := optsWith(CSetIS)
	for _, o := range db.Objects()[:10] {
		ubr, _ := ComputeUBR(db, tree, o, opts)
		// Points just outside each face of the UBR must NOT be in V(o)
		// ... unless the UBR is loose, which is allowed. Instead verify the
		// sound direction densely: points inside V(o) near the boundary are
		// inside the UBR. Sample on a ring slightly inside the UBR.
		for s := 0; s < 300; s++ {
			p := make(geom.Point, 2)
			for j := range p {
				p[j] = ubr.Lo[j] + rng.Float64()*(ubr.Hi[j]-ubr.Lo[j])
			}
			if bruteforce.InPVCell(db, o.ID, p) && !ubr.Contains(p) {
				t.Fatalf("boundary-adjacent PV point escaped UBR")
			}
		}
	}
}

// TestUBRTightAgainstGrid places objects on a regular grid; the PV-cell of an
// interior object is confined by its neighbors, so the UBR must be far
// smaller than the domain.
func TestUBRTightAgainstGrid(t *testing.T) {
	db := uncertain.NewDB(geom.UnitCube(2, 1000))
	id := uncertain.ID(0)
	var center *uncertain.Object
	for x := 0; x < 5; x++ {
		for y := 0; y < 5; y++ {
			lo := geom.Point{float64(x)*200 + 90, float64(y)*200 + 90}
			hi := geom.Point{float64(x)*200 + 110, float64(y)*200 + 110}
			o := &uncertain.Object{ID: id, Region: geom.NewRect(lo, hi)}
			if x == 2 && y == 2 {
				center = o
			}
			_ = db.Add(o)
			id++
		}
	}
	tree := BuildRegionTree(db, 8)
	for _, strat := range []CSetStrategy{CSetAll, CSetFS, CSetIS} {
		ubr, st := ComputeUBR(db, tree, center, optsWith(strat))
		if vol := ubr.Volume(); vol > 1000*1000/4 {
			t.Errorf("%v: UBR volume %g is more than a quarter of the domain (%v)", strat, vol, ubr)
		}
		if st.Iterations == 0 {
			t.Errorf("%v: SE did no iterations", strat)
		}
		// The PV-cell of the center object certainly fits within one grid
		// ring: neighbors at distance 200 dominate points beyond ~500.
		bound := geom.NewRect(geom.Point{100, 100}, geom.Point{900, 900})
		if !bound.ContainsRect(ubr) {
			t.Errorf("%v: UBR %v exceeds generous bound", strat, ubr)
		}
	}
}

func TestUBRSingleObjectIsDomain(t *testing.T) {
	db := uncertain.NewDB(geom.UnitCube(3, 100))
	o := &uncertain.Object{ID: 1, Region: geom.NewRect(geom.Point{10, 10, 10}, geom.Point{20, 20, 20})}
	_ = db.Add(o)
	tree := BuildRegionTree(db, 8)
	for _, strat := range []CSetStrategy{CSetAll, CSetFS, CSetIS} {
		ubr, _ := ComputeUBR(db, tree, o, optsWith(strat))
		if !ubr.Equal(db.Domain) {
			t.Errorf("%v: lone object's UBR = %v, want whole domain", strat, ubr)
		}
	}
}

func TestUBRAllOverlapping(t *testing.T) {
	// Every region overlaps every other: no object dominates anywhere, so
	// every PV-cell is the whole domain.
	db := uncertain.NewDB(geom.UnitCube(2, 100))
	for i := 0; i < 5; i++ {
		_ = db.Add(&uncertain.Object{
			ID:     uncertain.ID(i),
			Region: geom.NewRect(geom.Point{40, 40}, geom.Point{60, 60}),
		})
	}
	tree := BuildRegionTree(db, 8)
	for _, strat := range []CSetStrategy{CSetAll, CSetIS} {
		ubr, _ := ComputeUBR(db, tree, db.Objects()[0], optsWith(strat))
		if !ubr.Equal(db.Domain) {
			t.Errorf("%v: overlapping objects should give domain UBR, got %v", strat, ubr)
		}
	}
}

func TestChooseCSetStrategies(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	db := randomDB(rng, 100, 2, 1000, 30)
	tree := BuildRegionTree(db, 16)
	o := db.Objects()[0]
	// The C-set is regions; map them back to objects (the random regions are
	// distinct).
	ids := func(cset []geom.Rect) []uncertain.ID {
		var out []uncertain.ID
		for _, r := range cset {
			for _, other := range db.Objects() {
				if other.Region.Equal(r) {
					out = append(out, other.ID)
				}
			}
		}
		if len(out) != len(cset) {
			t.Fatalf("%d C-set regions map to %d objects", len(cset), len(out))
		}
		return out
	}

	all := ids(new(workspace).chooseCSet(nil, db, tree, o, optsWith(CSetAll)))
	if len(all) != 99 {
		t.Fatalf("ALL size = %d", len(all))
	}
	if slices.Contains(all, o.ID) {
		t.Fatal("ALL contains the object itself")
	}

	opts := optsWith(CSetFS)
	fs := ids(new(workspace).chooseCSet(nil, db, tree, o, opts))
	if len(fs) != opts.K {
		t.Fatalf("FS size = %d, want %d", len(fs), opts.K)
	}
	// FS must return the k nearest by center distance.
	want := bruteforce.NNByCenter(db, o.Region.Center())
	wantSet := map[uncertain.ID]bool{}
	for _, id := range want[1 : opts.K+1] { // index 0 is o itself
		wantSet[id] = true
	}
	for _, id := range fs {
		if !wantSet[id] {
			t.Errorf("FS returned %d, not among %d nearest centers", id, opts.K)
		}
	}

	is := ids(new(workspace).chooseCSet(nil, db, tree, o, optsWith(CSetIS)))
	if len(is) == 0 {
		t.Fatal("IS returned empty C-set on a populated database")
	}
	for _, id := range is {
		if id == o.ID {
			t.Fatal("IS contains the object itself")
		}
		if db.Get(id).Region.Intersects(o.Region) {
			t.Errorf("IS returned overlapping object %d", id)
		}
	}
	if len(is) > optsWith(CSetIS).KGlobal {
		t.Errorf("IS exceeded kGlobal: %d", len(is))
	}
	// The C-set is appended to the caller's slice.
	head := []geom.Rect{o.Region}
	if got := new(workspace).chooseCSet(head, db, tree, o, optsWith(CSetIS)); len(got) != 1+len(is) || !got[0].Equal(o.Region) {
		t.Errorf("chooseCSet onto a 1-element slice returned %d regions, want %d after the caller's", len(got), 1+len(is))
	}
}

func TestISQuadrantCoverage(t *testing.T) {
	// One near neighbor per quadrant plus a distant one per quadrant; with
	// kPartition=1 IS should stop after covering all quadrants and include
	// at least one object per quadrant.
	db := uncertain.NewDB(geom.UnitCube(2, 1000))
	o := &uncertain.Object{ID: 0, Region: geom.NewRect(geom.Point{495, 495}, geom.Point{505, 505})}
	_ = db.Add(o)
	id := uncertain.ID(1)
	// Quadrant representatives at varying distances.
	offsets := [][2]float64{{100, 100}, {-120, 110}, {130, -90}, {-80, -140}}
	for _, off := range offsets {
		lo := geom.Point{500 + off[0], 500 + off[1]}
		hi := geom.Point{500 + off[0] + 10, 500 + off[1] + 10}
		if lo[0] > hi[0] {
			lo[0], hi[0] = hi[0], lo[0]
		}
		_ = db.Add(&uncertain.Object{ID: id, Region: geom.NewRect(lo, hi)})
		id++
	}
	tree := BuildRegionTree(db, 8)
	opts := DefaultOptions()
	opts.KPartition = 1
	opts.KGlobal = 100
	got := new(workspace).chooseCSet(nil, db, tree, o, opts)
	if len(got) != 4 {
		t.Fatalf("IS returned %d objects, want all 4 quadrant reps", len(got))
	}
}

func TestIncrementalDeleteConservative(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	db := randomDB(rng, 50, 2, 800, 30)
	tree := BuildRegionTree(db, 16)
	opts := optsWith(CSetIS)

	// Old UBRs for all objects.
	old := map[uncertain.ID]geom.Rect{}
	for _, o := range db.Objects() {
		ubr, _ := ComputeUBR(db, tree, o, opts)
		old[o.ID] = ubr
	}
	// Delete object 7 and recompute warm-started UBRs for everyone else.
	_, _ = db.Remove(7)
	tree = BuildRegionTree(db, 16)
	for _, o := range db.Objects()[:15] {
		ubr, _ := ComputeUBRAfterDelete(db, tree, o, old[o.ID], old[7], opts)
		for s := 0; s < 300; s++ {
			p := geom.Point{rng.Float64() * 800, rng.Float64() * 800}
			if bruteforce.InPVCell(db, o.ID, p) && !ubr.Contains(p) {
				t.Fatalf("after delete: PV point %v of %d outside warm-started UBR %v", p, o.ID, ubr)
			}
		}
	}
}

func TestIncrementalInsertConservative(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	db := randomDB(rng, 50, 2, 800, 30)
	tree := BuildRegionTree(db, 16)
	opts := optsWith(CSetIS)

	old := map[uncertain.ID]geom.Rect{}
	for _, o := range db.Objects() {
		ubr, _ := ComputeUBR(db, tree, o, opts)
		old[o.ID] = ubr
	}
	// Insert a new object and recompute warm-started UBRs.
	newcomer := &uncertain.Object{ID: 1000, Region: geom.NewRect(geom.Point{400, 400}, geom.Point{420, 420})}
	_ = db.Add(newcomer)
	tree = BuildRegionTree(db, 16)
	for _, o := range db.Objects()[:15] {
		if o.ID == newcomer.ID {
			continue
		}
		ubr, _ := ComputeUBRAfterInsert(db, tree, o, old[o.ID], opts)
		for s := 0; s < 300; s++ {
			p := geom.Point{rng.Float64() * 800, rng.Float64() * 800}
			if bruteforce.InPVCell(db, o.ID, p) && !ubr.Contains(p) {
				t.Fatalf("after insert: PV point %v of %d outside warm-started UBR %v", p, o.ID, ubr)
			}
		}
		// Warm-started insert UBR can never exceed the old UBR.
		if !old[o.ID].ContainsRect(ubr) {
			t.Fatalf("insert warm start grew the UBR: old %v new %v", old[o.ID], ubr)
		}
	}
}

func TestDeltaControlsIterations(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	db := randomDB(rng, 60, 2, 1000, 30)
	tree := BuildRegionTree(db, 16)
	o := db.Objects()[0]
	coarse := optsWith(CSetIS)
	coarse.Delta = 100
	fine := optsWith(CSetIS)
	fine.Delta = 0.1
	_, stCoarse := ComputeUBR(db, tree, o, coarse)
	_, stFine := ComputeUBR(db, tree, o, fine)
	if stFine.Iterations <= stCoarse.Iterations {
		t.Errorf("finer Δ should take more iterations: %d vs %d", stFine.Iterations, stCoarse.Iterations)
	}
}

func TestFinerDeltaNeverLooser(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	db := randomDB(rng, 60, 2, 1000, 30)
	tree := BuildRegionTree(db, 16)
	for _, o := range db.Objects()[:8] {
		coarse := optsWith(CSetAll)
		coarse.Delta = 50
		fine := optsWith(CSetAll)
		fine.Delta = 0.5
		ubrCoarse, _ := ComputeUBR(db, tree, o, coarse)
		ubrFine, _ := ComputeUBR(db, tree, o, fine)
		if !ubrCoarse.ContainsRect(ubrFine) {
			t.Errorf("fine-Δ UBR %v not inside coarse-Δ UBR %v", ubrFine, ubrCoarse)
		}
	}
}

func TestStatsPopulated(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	db := randomDB(rng, 30, 2, 500, 20)
	tree := BuildRegionTree(db, 8)
	_, st := ComputeUBR(db, tree, db.Objects()[0], optsWith(CSetIS))
	if st.CSetSize == 0 || st.Iterations == 0 || st.DominationTests == 0 {
		t.Fatalf("stats not populated: %+v", st)
	}
	if st.Shrinks+st.Expands != st.Iterations {
		t.Fatalf("shrinks+expands=%d != iterations=%d", st.Shrinks+st.Expands, st.Iterations)
	}
	var agg Stats
	agg.Add(st)
	agg.Add(st)
	if agg.Iterations != 2*st.Iterations {
		t.Fatal("Stats.Add broken")
	}
}

func TestStrategyString(t *testing.T) {
	if CSetAll.String() != "ALL" || CSetFS.String() != "FS" || CSetIS.String() != "IS" {
		t.Fatal("strategy names wrong")
	}
	if CSetStrategy(42).String() == "" {
		t.Fatal("unknown strategy should still render")
	}
}
