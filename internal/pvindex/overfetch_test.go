package pvindex

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"pvoronoi/internal/bruteforce"
	"pvoronoi/internal/dataset"
	"pvoronoi/internal/geom"
	"pvoronoi/internal/race"
	"pvoronoi/internal/uncertain"
)

// overFetch is the query-side distance between the index and an exact PV
// diagram: at each query point, the objects whose stored UBR contains q (the
// Step-1 candidates) divided by |PossibleNN(q)|. It returns the mean and the
// 90th percentile of that ratio over qs.
func overFetch(t *testing.T, ix *Index, qs []geom.Point) (mean, p90 float64) {
	t.Helper()
	db := ix.DB()
	ubrs := make([]geom.Rect, 0, db.Len())
	for _, o := range db.Objects() {
		ubr, ok := ix.UBR(o.ID)
		if !ok {
			t.Fatalf("object %d has no stored UBR", o.ID)
		}
		ubrs = append(ubrs, ubr)
	}
	ratios := make([]float64, len(qs))
	for i, q := range qs {
		step1 := 0
		for _, ubr := range ubrs {
			if ubr.Contains(q) {
				step1++
			}
		}
		exact := len(bruteforce.PossibleNN(db, q))
		if exact == 0 || step1 < exact {
			t.Fatalf("at %v: %d UBRs contain q, %d possible NNs", q, step1, exact)
		}
		ratios[i] = float64(step1) / float64(exact)
		mean += ratios[i]
	}
	slices.Sort(ratios)
	return mean / float64(len(qs)), ratios[len(ratios)*9/10]
}

// TestRefinementOverFetch is refinement's verdict and its tightness guard.
// Three seeded datasets are built and run four insert/delete pairs of 16;
// then the Step-1 over-fetch (mean, p90) over 2 000 seeded points and Σ UBR
// volume are measured. On uniform data the rule escalates no row, at build
// or in the batches, so refinement on is refinement off and one build
// measures both. On clustered d = 2 data it is measured off (factor +Inf)
// and on. Refinement at least halves the mean over-fetch of the build, where
// it alone tightens fat rows, and still lowers it after the batches, where
// the warm runs that re-fit the rows a newcomer affects (over W(o) and the
// newcomers, probing from the old UBR) tighten fat rows with or without it:
// unrefined, the first insert batch takes the mean from 14.0 to 3.2. The
// "on" side may not get looser than the values recorded since every row
// keeps its witnesses and a delete re-fits only the rows its victim
// witnessed (uni2 and uni3 re-recorded since an insert re-fits a row over
// its newcomers first and keeps it where they cut nothing): mean and
// Σ volume within 1 %, p90 no higher.
func TestRefinementOverFetch(t *testing.T) {
	if race.Enabled {
		t.Skip("four harness-sized builds, ≈ 40× slower instrumented; CI's uninstrumented step runs it")
	}
	type measure struct{ mean, p90, vol float64 }
	for _, c := range []struct {
		name string
		p    dataset.SyntheticParams
		rec  measure // refinement on, recorded with witness lists
	}{
		{"uni2", dataset.SyntheticParams{N: 3000, Dim: 2, MaxSide: 60, Instances: 10, Seed: 3401}, measure{2.09516, 4, 3.15789e+08}},
		{"clustered2", dataset.SyntheticParams{N: 3000, Dim: 2, MaxSide: 60, Instances: 10, Seed: 3402, Clustered: true}, measure{2.27686, 4, 3.48712e+08}},
		{"uni3", dataset.SyntheticParams{N: 1500, Dim: 3, MaxSide: 400, Instances: 10, Seed: 3403}, measure{4.8789, 10, 1.06376e+13}},
	} {
		t.Run(c.name, func(t *testing.T) {
			qs := dataset.QueryPoints(geom.UnitCube(c.p.Dim, dataset.DomainSpan), 2000, c.p.Seed)
			measureAt := func(factor float64) (built, m measure, rc RefineCounters) {
				refineFactorForTest(t, factor)
				ix, err := BuildParallel(dataset.Synthetic(c.p), DefaultConfig(), 2)
				if err != nil {
					t.Fatal(err)
				}
				built.mean, built.p90 = overFetch(t, ix, qs)
				churn := c.p
				churn.N, churn.Seed = 4*16, c.p.Seed+100
				fresh := dataset.Synthetic(churn).Objects()
				for k := 0; k < 4; k++ {
					ins, del := make([]Update, 16), make([]Update, 16)
					for j, o := range fresh[k*16 : (k+1)*16] {
						o.ID += 100_000
						ins[j], del[j] = Update{Op: OpInsert, Object: o}, Update{Op: OpDelete, ID: o.ID}
					}
					for _, ups := range [][]Update{ins, del} {
						if _, err := ix.ApplyBatch(ups); err != nil {
							t.Fatal(err)
						}
					}
				}
				m.mean, m.p90 = overFetch(t, ix, qs)
				m.vol = sumUBRVolume(t, ix)
				return built, m, ix.RefineCounters()
			}
			builtOn, on, rc := measureAt(refineFactor)
			if !c.p.Clustered {
				t.Logf("%s over-fetch mean/p90/ΣUBR volume: %.6g / %v / %.6g, no row refined", c.name, on.mean, on.p90, on.vol)
				if rc.RowsRefined != 0 {
					t.Errorf("the rule escalated %d rows on uniform data", rc.RowsRefined)
				}
			} else {
				builtOff, off, _ := measureAt(math.Inf(1))
				t.Logf("%s over-fetch mean/p90/ΣUBR volume: off %.6g / %v / %.6g, on %.6g / %v / %.6g, %d rows refined; built: off %.6g / %v, on %.6g / %v",
					c.name, off.mean, off.p90, off.vol, on.mean, on.p90, on.vol, rc.RowsRefined, builtOff.mean, builtOff.p90, builtOn.mean, builtOn.p90)
				if builtOn.mean > 0.5*builtOff.mean {
					t.Errorf("clustered build over-fetch with refinement %.4g, without %.4g: refinement no longer halves it", builtOn.mean, builtOff.mean)
				}
				if on.mean >= off.mean {
					t.Errorf("clustered over-fetch after the batches with refinement %.4g, without %.4g: refinement no longer lowers it", on.mean, off.mean)
				}
			}
			if on.mean > 1.01*c.rec.mean || on.p90 > c.rec.p90 || on.vol > 1.01*c.rec.vol {
				t.Errorf("refined over-fetch mean %.6g, p90 %v, Σ volume %.6g; recorded %.6g, %v, %.6g",
					on.mean, on.p90, on.vol, c.rec.mean, c.rec.p90, c.rec.vol)
			}
		})
	}
}

// TestInsertRefitSlack bounds what the insert rule gives up against the
// one-run rule it replaced (reference_test.go's referenceSE), which re-ran
// every affected row over W(o) ∪ the newcomers from its stored UBR: a row the
// newcomers alone do not cut keeps its UBR, though the old witnesses and the
// newcomers together might have cut it. On TestRefinementOverFetch's three
// datasets, 40 pairs of 16 — an insert batch, then alternately the harness's
// delete of those 16 and a delete of 16 build objects, whose newcomers stay —
// may leave the mean over-fetch (over 1 000 seeded points) and Σ UBR volume at
// most 8 % above the one-run rule's, recorded here.
func TestInsertRefitSlack(t *testing.T) {
	if race.Enabled {
		t.Skip("three builds and 240 batches, ≈ 40× slower instrumented; CI's uninstrumented step runs it")
	}
	const pairs, batch = 40, 16
	for _, c := range []struct {
		name      string
		p         dataset.SyntheticParams
		mean, vol float64 // the one-run rule's
	}{
		{"uni2", dataset.SyntheticParams{N: 3000, Dim: 2, MaxSide: 60, Instances: 10, Seed: 3401}, 2.0597, 3.14654e+08},
		{"clustered2", dataset.SyntheticParams{N: 3000, Dim: 2, MaxSide: 60, Instances: 10, Seed: 3402, Clustered: true}, 2.0737, 3.19841e+08},
		{"uni3", dataset.SyntheticParams{N: 1500, Dim: 3, MaxSide: 400, Instances: 10, Seed: 3403}, 4.82487, 1.03822e+13},
	} {
		t.Run(c.name, func(t *testing.T) {
			ix, err := BuildParallel(dataset.Synthetic(c.p), DefaultConfig(), 2)
			if err != nil {
				t.Fatal(err)
			}
			churn := c.p
			churn.N, churn.Seed = pairs*batch, c.p.Seed+200
			fresh := dataset.Synthetic(churn).Objects()
			victims := rand.New(rand.NewSource(c.p.Seed)).Perm(c.p.N)
			for k := 0; k < pairs; k++ {
				ins, del := make([]Update, batch), make([]Update, batch)
				for j, o := range fresh[k*batch : (k+1)*batch] {
					o.ID += 100_000
					ins[j], del[j] = Update{Op: OpInsert, Object: o}, Update{Op: OpDelete, ID: o.ID}
					if k%2 == 1 {
						del[j].ID = uncertain.ID(victims[k/2*batch+j])
					}
				}
				for _, ups := range [][]Update{ins, del} {
					if _, err := ix.ApplyBatch(ups); err != nil {
						t.Fatal(err)
					}
				}
			}
			mean, _ := overFetch(t, ix, dataset.QueryPoints(geom.UnitCube(c.p.Dim, dataset.DomainSpan), 1000, c.p.Seed))
			vol := sumUBRVolume(t, ix)
			t.Logf("%s after %d mixed pairs: over-fetch mean %.6g (%.4f × the one-run rule's), Σ UBR volume %.6g (%.4f ×)",
				c.name, pairs, mean, mean/c.mean, vol, vol/c.vol)
			if mean > 1.08*c.mean || vol > 1.08*c.vol {
				t.Errorf("over-fetch mean %.6g, Σ volume %.6g; the one-run rule left %.6g, %.6g: more than 8 %% looser",
					mean, vol, c.mean, c.vol)
			}
		})
	}
}
