package pvindex

import (
	"slices"
	"testing"

	"pvoronoi/internal/bruteforce"
	"pvoronoi/internal/dataset"
	"pvoronoi/internal/geom"
	"pvoronoi/internal/race"
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
// Three seeded datasets are built with refinement on and off and run four
// insert/delete pairs of 16; then the Step-1 over-fetch (mean, p90) over
// 2 000 seeded points and Σ UBR volume are measured. On clustered d = 2 data
// refinement at least halves the mean over-fetch; on uniform data it barely
// moves it. The "on" side may not get looser than the values recorded while
// hub scores were exact UBR-intersection degrees: mean and Σ volume within
// 1 %, p90 no higher.
func TestRefinementOverFetch(t *testing.T) {
	if race.Enabled {
		t.Skip("six harness-sized builds, ≈ 40× slower instrumented; CI's uninstrumented step runs it")
	}
	type measure struct{ mean, p90, vol float64 }
	for _, c := range []struct {
		name string
		p    dataset.SyntheticParams
		rec  measure // refinement on, recorded with exact-degree hub scores
	}{
		{"uni2", dataset.SyntheticParams{N: 3000, Dim: 2, MaxSide: 60, Instances: 10, Seed: 3401}, measure{2.09466, 3.5, 3.15899e+08}},
		{"clustered2", dataset.SyntheticParams{N: 3000, Dim: 2, MaxSide: 60, Instances: 10, Seed: 3402, Clustered: true}, measure{4.40331, 8, 5.99043e+08}},
		{"uni3", dataset.SyntheticParams{N: 1500, Dim: 3, MaxSide: 400, Instances: 10, Seed: 3403}, measure{4.83453, 10, 1.05463e+13}},
	} {
		t.Run(c.name, func(t *testing.T) {
			qs := dataset.QueryPoints(geom.UnitCube(c.p.Dim, dataset.DomainSpan), 2000, c.p.Seed)
			var got [2]measure // off, on
			for i, frac := range []float64{0, hubRule.topFraction} {
				hubRuleForTest(t, frac, hubRule.minMass) // topFraction 0: refinement off
				ix, err := BuildParallel(dataset.Synthetic(c.p), DefaultConfig(), 2)
				if err != nil {
					t.Fatal(err)
				}
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
				got[i].mean, got[i].p90 = overFetch(t, ix, qs)
				got[i].vol = sumUBRVolume(t, ix)
			}
			off, on := got[0], got[1]
			t.Logf("%s over-fetch mean/p90/ΣUBR volume: off %.6g / %v / %.6g, on %.6g / %v / %.6g",
				c.name, off.mean, off.p90, off.vol, on.mean, on.p90, on.vol)
			if c.p.Clustered && on.mean > 0.5*off.mean {
				t.Errorf("clustered over-fetch with refinement %.4g, without %.4g: refinement no longer halves it", on.mean, off.mean)
			}
			if on.mean > 1.01*c.rec.mean || on.p90 > c.rec.p90 || on.vol > 1.01*c.rec.vol {
				t.Errorf("refined over-fetch mean %.6g, p90 %v, Σ volume %.6g; recorded %.6g, %v, %.6g",
					on.mean, on.p90, on.vol, c.rec.mean, c.rec.p90, c.rec.vol)
			}
		})
	}
}
