package pvindex

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sync"
	"testing"

	"pvoronoi/internal/bruteforce"
	"pvoronoi/internal/core"
	"pvoronoi/internal/dataset"
	"pvoronoi/internal/domination"
	"pvoronoi/internal/geom"
	"pvoronoi/internal/race"
	"pvoronoi/internal/rtree"
	"pvoronoi/internal/uncertain"
)

// refineFactorForTest sets the fatness rule's factor for the rest of the
// test: 0 escalates every row with a C-set, +Inf none.
func refineFactorForTest(t *testing.T, factor float64) {
	old := refineFactor
	refineFactor = factor
	t.Cleanup(func() { refineFactor = old })
}

// aggressiveRefine escalates every row for the rest of the test — the
// setting the oracle tests use to maximize the chance of surfacing an
// unsound shrink — and returns the test config.
func aggressiveRefine(t *testing.T) Config {
	refineFactorForTest(t, 0)
	return testConfig()
}

// rho is the quantity the rule thresholds: vol(UBR)·|C| ÷ vol(C-box).
func rho(ubr geom.Rect, st core.Stats) float64 {
	return ubr.Volume() * float64(st.CSetSize) / st.CSetVolume
}

// checkUBRSoundness asserts the PV-cell containment oracle over a sample
// grid: every point whose brute-force possible-NN set includes an object
// must lie inside that object's stored (refined) UBR.
func checkUBRSoundness(t *testing.T, ix *Index, rng *rand.Rand, samples int, span float64) {
	t.Helper()
	db := ix.DB()
	for s := 0; s < samples; s++ {
		p := geom.Point{rng.Float64() * span, rng.Float64() * span}
		for _, id := range bruteforce.PossibleNN(db, p) {
			ubr, ok := ix.UBR(id)
			if !ok {
				t.Fatalf("object %d in possible-NN set has no stored UBR", id)
			}
			if !ubr.Contains(p) {
				t.Fatalf("PV-cell point %v of object %d outside refined UBR %v",
					p, id, ubr)
			}
		}
	}
}

// TestRefineSoundnessOracle is the refinement subsystem's property test:
// through build, insert, delete and reinsert churn — with every row a
// refinement target — each stored UBR must still contain all points whose
// brute-force nearest-neighbor set includes its object. Concurrent
// possible-NN readers run against the index while the batches apply, so the
// race detector also sees the refined write path interleaved with queries.
func TestRefineSoundnessOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	const span = 1000.0
	db := randomDB(rng, 90, 2, span, 40, false)
	ix, err := Build(db, aggressiveRefine(t))
	if err != nil {
		t.Fatal(err)
	}
	if ix.RefineCounters().RowsRefined == 0 {
		t.Fatal("aggressive config refined no rows at build")
	}
	checkUBRSoundness(t, ix, rng, 250, span)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		qrng := rand.New(rand.NewSource(72))
		for {
			select {
			case <-stop:
				return
			default:
			}
			q := geom.Point{qrng.Float64() * span, qrng.Float64() * span}
			if _, err := ix.PossibleNN(q); err != nil {
				t.Errorf("concurrent query: %v", err)
				return
			}
		}
	}()

	nextID := uncertain.ID(1000)
	var deleted []*uncertain.Object
	for round := 0; round < 6; round++ {
		var ups []Update
		// Inserts: fresh objects in a random subarea.
		for i := 0; i < 8; i++ {
			lo := geom.Point{rng.Float64() * (span - 40), rng.Float64() * (span - 40)}
			o := &uncertain.Object{
				ID:     nextID,
				Region: geom.NewRect(lo, geom.Point{lo[0] + 1 + rng.Float64()*39, lo[1] + 1 + rng.Float64()*39}),
			}
			nextID++
			ups = append(ups, Update{Op: OpInsert, Object: o})
		}
		// Deletes: live objects picked at random, remembered for reinsertion.
		objs := ix.DB().Objects()
		for i := 0; i < 5 && len(objs) > 10; i++ {
			o := objs[rng.Intn(len(objs))]
			dup := false
			for _, u := range ups {
				if u.Op == OpDelete && u.ID == o.ID {
					dup = true
				}
			}
			if dup {
				continue
			}
			ups = append(ups, Update{Op: OpDelete, ID: o.ID})
			deleted = append(deleted, o)
		}
		// Reinserts: bring back an object deleted in an earlier round.
		if round > 0 && len(deleted) > 0 {
			o := deleted[0]
			deleted = deleted[1:]
			if ix.DB().Get(o.ID) == nil {
				ups = append(ups, Update{Op: OpInsert, Object: o})
			}
		}
		if _, err := ix.ApplyBatch(ups); err != nil {
			t.Fatal(err)
		}
		checkUBRSoundness(t, ix, rng, 150, span)
	}
	close(stop)
	wg.Wait()
	checkUBRSoundness(t, ix, rng, 250, span)
}

// TestRefineSelectionAndCounters checks the rule's two ends and the
// counters: at factor 0 the build escalates every row (each has a C-set),
// the lifetime counters and the build stats agree on it; at +Inf nothing
// escalates, at build or in a batch, and every query gets the same answer.
func TestRefineSelectionAndCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	db := randomDB(rng, 100, 2, 1000, 40, false)
	refineFactorForTest(t, 0)
	ix, err := Build(db, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	rc := ix.RefineCounters()
	if rc.RowsRefined != 100 || rc.BudgetSpent <= 0 || rc.RowsUnchanged > rc.RowsRefined {
		t.Fatalf("factor 0 escalated %+v, want every one of 100 rows", rc)
	}
	if r := ix.Build.SE.Refine; int64(r.Rows) != rc.RowsRefined || r.DominationTests != rc.BudgetSpent || int64(r.Unchanged) != rc.RowsUnchanged {
		t.Fatalf("build stats attribute %+v, lifetime counters %+v", r, rc)
	}

	refineFactorForTest(t, math.Inf(1))
	rng2 := rand.New(rand.NewSource(73))
	db2 := randomDB(rng2, 100, 2, 1000, 40, false)
	ix2, err := Build(db2, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rc2 := ix2.RefineCounters(); rc2 != (RefineCounters{}) {
		t.Fatalf("factor +Inf spent budget: %+v", rc2)
	}
	// The two builds saw the same data; the refined index must give every
	// query the same answer, only cheaper.
	for s := 0; s < 100; s++ {
		q := geom.Point{rng.Float64() * 1000, rng.Float64() * 1000}
		a, err := ix.PossibleNN(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ix2.PossibleNN(q)
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDs(idsOf(a), idsOf(b)) {
			t.Fatalf("refined/unrefined possible-NN diverge at %v: %v vs %v", q, a, b)
		}
	}
	if _, err := ix2.ApplyBatch([]Update{{Op: OpDelete, ID: ix2.DB().Objects()[0].ID}}); err != nil {
		t.Fatal(err)
	}
	if rc := ix2.RefineCounters(); rc.RowsRefined != 0 {
		t.Fatalf("factor +Inf refined %d rows after a batch", rc.RowsRefined)
	}
}

// TestRefineBatchRerefinesCrossedHubs checks the rule on the write path: a
// row a batch recomputes is escalated in the same SE job when it is fat, so
// the op that recomputed it carries the extra work — in SE.Refine, as a share
// of its SETime — and the lifetime counters grow by exactly the batch's
// refinement rows.
func TestRefineBatchRerefinesCrossedHubs(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	db := randomDB(rng, 80, 2, 1000, 40, false)
	ix, err := Build(db, aggressiveRefine(t))
	if err != nil {
		t.Fatal(err)
	}
	before := ix.RefineCounters()
	lo := geom.Point{500, 500}
	o := &uncertain.Object{ID: 5000, Region: geom.NewRect(lo, geom.Point{540, 540})}
	sts, err := ix.ApplyBatch([]Update{{Op: OpInsert, Object: o}, {Op: OpDelete, ID: db.Objects()[0].ID}})
	if err != nil {
		t.Fatal(err)
	}
	after := ix.RefineCounters()
	rows := int64(0)
	for i, st := range sts {
		if st.SE.Refine.Rows == 0 || st.SE.Refine.Time > st.SETime {
			t.Fatalf("op %d: refinement %+v against SE time %v", i, st.SE.Refine, st.SETime)
		}
		rows += int64(st.SE.Refine.Rows)
	}
	if after.RowsRefined-before.RowsRefined != rows || after.BudgetSpent <= before.BudgetSpent {
		t.Fatalf("counters %+v -> %+v, the batch's ops refined %d rows", before, after, rows)
	}
}

// TestRefinePersistRoundTrip: the rule keeps no state, so a saved-and-loaded
// index refines exactly like the live one. On clustered data, where the rule
// fires, the two reach the same stored-UBR state hash after the same batches,
// and each batch refines the same rows on both.
func TestRefinePersistRoundTrip(t *testing.T) {
	p := dataset.SyntheticParams{N: 600, Dim: 2, MaxSide: 60, Seed: 75, Clustered: true}
	ix, err := Build(dataset.Synthetic(p), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFrom(bytes.NewReader(buf.Bytes()), ix.DB())
	if err != nil {
		t.Fatal(err)
	}
	if n := loaded.RefineCounters().RowsRefined; n != 0 {
		t.Fatalf("load refined %d rows", n)
	}
	p.N, p.Seed = 2*16, 76
	fresh := dataset.Synthetic(p).Objects()
	refined := 0
	for k := 0; k < 2; k++ {
		ins, del := make([]Update, 16), make([]Update, 16)
		for j, o := range fresh[k*16 : (k+1)*16] {
			o.ID += 100_000
			ins[j], del[j] = Update{Op: OpInsert, Object: o}, Update{Op: OpDelete, ID: o.ID}
		}
		for _, ups := range [][]Update{ins, del} {
			var rows [2]int
			for s, side := range []*Index{ix, loaded} {
				sts, err := side.ApplyBatch(ups)
				if err != nil {
					t.Fatal(err)
				}
				for _, st := range sts {
					rows[s] += st.SE.Refine.Rows
				}
			}
			if rows[0] != rows[1] {
				t.Fatalf("batch refined %d rows live, %d loaded", rows[0], rows[1])
			}
			refined += rows[0]
		}
	}
	if refined == 0 {
		t.Fatal("no batch refined a row; the data no longer exercises the rule")
	}
	t.Logf("%d rows refined by the batches on each side", refined)
	hl, hr := fnv.New64a(), fnv.New64a()
	hashState(t, hl, ix)
	hashState(t, hr, loaded)
	if hl.Sum64() != hr.Sum64() {
		t.Fatalf("live state hash %#x, loaded %#x", hl.Sum64(), hr.Sum64())
	}
	assertSameState(t, loaded, ix, "loaded index after the batches")
}

// TestRefineRuleDegenerate: the rule decides degenerate C-sets without NaN.
// An empty C-set (a lone object) never escalates, whatever the factor; a
// zero-volume C-box — collinear regions, coincident zero-extent regions —
// escalates at every finite factor and at none at +Inf; zero-extent objects
// in general position get a finite ρ. Each goes through the SE job itself,
// and its result still contains the object's region.
func TestRefineRuleDegenerate(t *testing.T) {
	pt := func(x, y float64) geom.Rect { return geom.NewRect(geom.Point{x, y}, geom.Point{x, y}) }
	box := func(x0, y0, x1, y1 float64) geom.Rect { return geom.NewRect(geom.Point{x0, y0}, geom.Point{x1, y1}) }
	for _, c := range []struct {
		name    string
		self    geom.Rect
		others  []geom.Rect
		wantFat [3]bool // at factor 0, 8, +Inf
		zeroBox bool
	}{
		{"empty", box(10, 10, 20, 20), nil, [3]bool{false, false, false}, true},
		{"collinear", box(480, 100, 520, 140), []geom.Rect{box(100, 500, 200, 500), pt(500, 500), box(700, 500, 900, 500)}, [3]bool{true, true, false}, true},
		{"coincident points", pt(100, 100), []geom.Rect{pt(600, 600), pt(600, 600), pt(600, 600)}, [3]bool{true, true, false}, true},
		{"zero-extent objects", pt(500, 500), []geom.Rect{pt(100, 200), pt(800, 300), pt(450, 900), pt(520, 480)}, [3]bool{true, false, false}, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			db := uncertain.NewDB(geom.UnitCube(2, 1000))
			objs := append([]geom.Rect{c.self}, c.others...)
			for i, r := range objs {
				if err := db.Add(&uncertain.Object{ID: uncertain.ID(i), Region: r}); err != nil {
					t.Fatal(err)
				}
			}
			ix := &Index{cfg: testConfig()}
			w := &working{ix: ix, db: db, regionTree: core.BuildRegionTree(db, rtree.DefaultFanout)}
			o := db.Get(0)
			ubr, st := core.ComputeUBR(db, w.regionTree, o, ix.cfg.SE)
			if (st.CSetVolume == 0) != c.zeroBox || math.IsNaN(st.CSetVolume) {
				t.Fatalf("C-set of %d regions, box volume %v", st.CSetSize, st.CSetVolume)
			}
			if r := rho(ubr, st); !c.zeroBox && (math.IsNaN(r) || math.IsInf(r, 0)) {
				t.Fatalf("ρ = %v", r)
			}
			for k, f := range []float64{0, 8, math.Inf(1)} {
				refineFactorForTest(t, f)
				if got := fat(ubr, st); got != c.wantFat[k] {
					t.Fatalf("factor %v: fat = %v, want %v (ρ %v, |C| %d)", f, got, c.wantFat[k], rho(ubr, st), st.CSetSize)
				}
				got, _, gst := w.se(o, seStart{})
				if escalated := gst.Refine.Rows == 1; escalated != c.wantFat[k] || !got.ContainsRect(o.Region) {
					t.Fatalf("factor %v: SE job escalated %v, want %v; UBR %v", f, escalated, c.wantFat[k], got)
				}
			}
		})
	}
}

// TestRefineRuleUniform: on seeded uniform data at d = 2…5 the rule escalates
// no row at build — the build is the unrefined one — and the largest ρ
// stays under the threshold, by the logged margin.
func TestRefineRuleUniform(t *testing.T) {
	if race.Enabled {
		t.Skip("harness-sized SE passes, ≈ 40× slower instrumented; CI's uninstrumented step runs it")
	}
	for _, c := range []struct{ d, n int }{{2, 8000}, {3, 3000}, {4, 1000}, {5, 600}} {
		t.Run(fmt.Sprintf("d%d", c.d), func(t *testing.T) {
			db := dataset.Synthetic(dataset.SyntheticParams{N: c.n, Dim: c.d, Seed: int64(3800 + c.d)})
			tree := core.BuildRegionTree(db, rtree.DefaultFanout)
			objs := db.Objects()
			rhos := make([]float64, len(objs))
			escalated := make([]bool, len(objs))
			parallelFor(2, len(objs), func(i int) {
				ubr, st := core.ComputeUBR(db, tree, objs[i], DefaultConfig().SE)
				rhos[i], escalated[i] = rho(ubr, st), fat(ubr, st)
			})
			worst := 0
			for i := range objs {
				if escalated[i] {
					t.Errorf("object %d escalates: ρ %.4g", objs[i].ID, rhos[i])
				}
				if rhos[i] > rhos[worst] {
					worst = i
				}
			}
			t.Logf("d%d n %d: max ρ %.3g (object %d), threshold %g", c.d, c.n, rhos[worst], objs[worst].ID, math.Ldexp(refineFactor, c.d))
		})
	}
}

// TestRefineRuleCoversOldHubs: on clustered d = 2 data every row the old
// whole-index selection picked — the top 2 % by UBR volume × window mass,
// over the unrefined build (topHubs over bruteMasses, reference_test.go) —
// is escalated by its build SE job, and the fat rows stay a small share of
// the index.
func TestRefineRuleCoversOldHubs(t *testing.T) {
	if race.Enabled {
		t.Skip("a harness-sized build, ≈ 40× slower instrumented; CI's uninstrumented step runs it")
	}
	factor := refineFactor
	refineFactorForTest(t, math.Inf(1))
	ix, err := BuildParallel(dataset.Synthetic(dataset.SyntheticParams{N: 8000, Dim: 2, Seed: 3802, Clustered: true}), DefaultConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	hubs := referenceHubs(t, ix)
	refineFactor = factor
	v := ix.current.Load()
	w := &working{ix: ix, db: v.db, regionTree: v.regionTree}
	objs := v.db.Objects()
	escalated := make([]bool, len(objs))
	parallelFor(2, len(objs), func(i int) {
		ubr, st := core.ComputeUBR(w.db, w.regionTree, objs[i], ix.cfg.SE)
		escalated[i] = fat(ubr, st)
	})
	fatRows := 0
	for _, e := range escalated {
		if e {
			fatRows++
		}
	}
	for _, id := range hubs {
		o := v.db.Get(uncertain.ID(id))
		stored, _ := v.ubr(o.ID)
		got, _, st := w.se(o, seStart{})
		esc := core.Escalated(ix.cfg.SE)
		want, _, _ := core.Run(core.ChooseCSet(nil, w.db, w.regionTree, o, esc), o.Region, o.Region.Clone(), stored.Clone(),
			domination.Bisect, esc.Delta, esc.MaxDepth, nil)
		if st.Refine.Rows != 1 || !sameRectBits(got, want) {
			t.Fatalf("old hub %d: the build SE job escalated %d times, UBR %v, escalated cold UBR %v", id, st.Refine.Rows, got, want)
		}
	}
	t.Logf("%d old hubs, all escalated; %d fat rows of %d (%.1f %%)", len(hubs), fatRows, len(objs), 100*float64(fatRows)/float64(len(objs)))
	if len(hubs) == 0 || fatRows > len(objs)/10 {
		t.Fatalf("%d old hubs, %d fat rows of %d", len(hubs), fatRows, len(objs))
	}
}
