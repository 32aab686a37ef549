package pvindex

import (
	"bytes"
	"math"
	"math/rand"
	"sync"
	"testing"

	"pvoronoi/internal/bruteforce"
	"pvoronoi/internal/geom"
	"pvoronoi/internal/uncertain"
)

// hubRuleForTest widens (or narrows) refinement's hub selection for the rest
// of the test.
func hubRuleForTest(t *testing.T, topFraction float64, minMass int) {
	old := hubRule
	hubRule.topFraction, hubRule.minMass = topFraction, minMass
	t.Cleanup(func() { hubRule = old })
}

// aggressiveRefine aims the refinement pass at every row (no degree floor,
// full top fraction) for the rest of the test — the setting the oracle tests
// use to maximize the chance of surfacing an unsound shrink — and returns
// the test config.
func aggressiveRefine(t *testing.T) Config {
	hubRuleForTest(t, 1, 0)
	return testConfig()
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

// TestRefineSelectionAndCounters checks the budget policy: the construction
// pass refines exactly the configured top fraction of qualifying rows,
// fattest first, and the lifetime counters plus the incremental threshold
// reflect it. A rule that selects nothing (topFraction 0, how tests turn
// refinement off) must spend nothing and leave the threshold unset.
func TestRefineSelectionAndCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	db := randomDB(rng, 100, 2, 1000, 40, false)
	hubRuleForTest(t, 0.1, 0)
	ix, err := Build(db, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	rc := ix.RefineCounters()
	if rc.RowsRefined != 10 {
		t.Fatalf("rows refined = %d, want 10 (top 10%% of 100)", rc.RowsRefined)
	}
	if rc.BudgetSpent <= 0 {
		t.Fatalf("counters inconsistent: %+v", rc)
	}
	if math.IsInf(rc.Threshold, 1) || rc.Threshold <= 0 {
		t.Fatalf("construction pass left threshold %v", rc.Threshold)
	}
	if ix.Build.SE.Refine.Rows != 10 {
		t.Fatalf("build stats attribute %d refined rows, want 10", ix.Build.SE.Refine.Rows)
	}

	hubRuleForTest(t, 0, 0)
	rng2 := rand.New(rand.NewSource(73))
	db2 := randomDB(rng2, 100, 2, 1000, 40, false)
	ix2, err := Build(db2, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	rc2 := ix2.RefineCounters()
	if rc2.RowsRefined != 0 || rc2.BudgetSpent != 0 {
		t.Fatalf("empty hub rule spent budget: %+v", rc2)
	}
	if !math.IsInf(rc2.Threshold, 1) {
		t.Fatalf("empty hub rule set threshold %v", rc2.Threshold)
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
		t.Fatalf("empty hub rule refined %d rows after a batch", rc.RowsRefined)
	}
}

// TestRefineBatchRerefinesCrossedHubs checks the incremental rule: rows a
// batch recomputes get re-refined only when their hub score reaches the
// construction threshold. With an aggressive config the threshold is the
// weakest row's score, so churn keeps refining and the lifetime counters
// grow; the batch stats carry the extra work in the Refine block.
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
	sts, err := ix.ApplyBatch([]Update{{Op: OpInsert, Object: o}})
	if err != nil {
		t.Fatal(err)
	}
	after := ix.RefineCounters()
	if after.RowsRefined <= before.RowsRefined {
		t.Fatalf("batch refined no rows (aggressive threshold): %d -> %d",
			before.RowsRefined, after.RowsRefined)
	}
	if after.BudgetSpent <= before.BudgetSpent {
		t.Fatal("batch refinement spent no budget")
	}
	if len(sts) != 1 || sts[0].SE.Refine.Rows == 0 {
		t.Fatalf("batch stats missing refinement attribution: %+v", sts)
	}
}

// TestRefinePersistRoundTrip checks PVIDX4 persistence: refined UBRs and the
// incremental threshold survive a save/load cycle.
func TestRefinePersistRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	db := randomDB(rng, 80, 2, 1000, 40, false)
	ix, err := Build(db, aggressiveRefine(t))
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
	if lt, it := loaded.refineThreshold(), ix.refineThreshold(); lt != it {
		t.Fatalf("threshold not restored: %v vs %v", lt, it)
	}
	for _, o := range ix.DB().Objects() {
		a, _ := ix.UBR(o.ID)
		b, ok := loaded.UBR(o.ID)
		if !ok || !a.Equal(b) {
			t.Fatalf("object %d UBR changed across round trip: %v vs %v", o.ID, a, b)
		}
	}
	// A load must not re-refine: its rows are already refined.
	if n := loaded.RefineCounters().RowsRefined; n != 0 {
		t.Fatalf("load refined %d rows", n)
	}
}
