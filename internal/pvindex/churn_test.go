package pvindex

import (
	"math/rand"
	"slices"
	"testing"

	"pvoronoi/internal/bruteforce"
	"pvoronoi/internal/core"
	"pvoronoi/internal/dataset"
	"pvoronoi/internal/geom"
	"pvoronoi/internal/race"
)

// TestChurnDriftBounded: the ingest workload's shape — 100 times an insert
// batch of 16 and the delete batch that removes it again, with IDs far above
// the data's — must not ratchet the stored UBRs outward. A delete recomputes a
// row between its old UBR and the union with the victim's, so only the faces
// the victim sticks out of can move, and a row that comes back bit-identical
// is not rewritten; with h restarted at the domain every delete-recompute ends
// each of the 2d faces up to Δ outside where it was, and Σ volume passes
// 1.005 × cold within 100 pairs. Afterwards every stored UBR still contains
// its cell, every window degree is the UBR-intersection count, some rows
// were left alone and verify passes; the witness lists' sizes are logged.
func TestChurnDriftBounded(t *testing.T) {
	p := dataset.SyntheticParams{N: 2000, Dim: 2, MaxSide: 60, Seed: 7}
	db := dataset.Synthetic(p)
	ix, err := Build(db, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	pairs, batch := 100, 16
	if race.Enabled {
		pairs = 12 // single-writer arithmetic, ~15× slower instrumented; CI's uninstrumented step runs all 100
	}
	p.N, p.Seed = pairs*batch, 8
	fresh := dataset.Synthetic(p).Objects()
	var affected, unchanged int
	for i := 0; i < pairs; i++ {
		ins, del := make([]Update, batch), make([]Update, batch)
		for k, o := range fresh[i*batch : (i+1)*batch] {
			o.ID += 1_000_000
			ins[k], del[k] = Update{Op: OpInsert, Object: o}, Update{Op: OpDelete, ID: o.ID}
		}
		for _, ups := range [][]Update{ins, del} {
			sts, err := ix.ApplyBatch(ups)
			if err != nil {
				t.Fatal(err)
			}
			for _, st := range sts {
				affected += st.Affected
				unchanged += st.Unchanged
			}
		}
	}
	if unchanged == 0 || unchanged >= affected {
		t.Fatalf("%d of %d affected rows came back unchanged; want some, not all", unchanged, affected)
	}
	verifyDegrees(t, ix, "after churn")
	if err := verify(ix); err != nil {
		t.Fatal(err)
	}

	final := ix.DB()
	tree := core.BuildRegionTree(final, ix.cfg.Fanout)
	rng := rand.New(rand.NewSource(9))
	var stored, cold float64
	q := make(geom.Point, p.Dim)
	for _, o := range final.Objects() {
		ubr, ok := ix.UBR(o.ID)
		if !ok {
			t.Fatalf("object %d has no stored UBR", o.ID)
		}
		ref, _ := core.ComputeUBR(final, tree, o, ix.cfg.SE)
		stored, cold = stored+ubr.Volume(), cold+ref.Volume()
		// The cell lies inside the cold UBR: sample there.
		for s := 0; s < 16; s++ {
			for j := range q {
				q[j] = ref.Lo[j] + rng.Float64()*ref.Side(j)
			}
			if !ubr.Contains(q) && bruteforce.InPVCell(final, o.ID, q) {
				t.Fatalf("object %d: point %v of its PV-cell is outside the stored UBR %v", o.ID, q, ubr)
			}
		}
	}
	sizes := make([]int, 0, final.Len())
	for _, o := range final.Objects() {
		sizes = append(sizes, len(ix.current.Load().witnesses.get(uint32(o.ID))))
	}
	slices.Sort(sizes)
	t.Logf("%d of %d affected rows unchanged; Σ stored volume %.4f × Σ cold; |W| p50 %d, max %d (cap %d)",
		unchanged, affected, stored/cold, sizes[len(sizes)/2], sizes[len(sizes)-1], witnessCap(p.Dim))
	if stored > 1.005*cold {
		t.Fatalf("stored UBRs drifted: Σ volume %g is %.4f × the cold %g, want ≤ 1.005 ×", stored, stored/cold, cold)
	}
	if got := final.Len(); got != 2000 {
		t.Fatalf("database has %d objects after the pairs, want 2000", got)
	}
}
