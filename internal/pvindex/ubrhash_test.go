package pvindex

import (
	"bytes"
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"pvoronoi/internal/dataset"
	"pvoronoi/internal/race"
	"pvoronoi/internal/uncertain"
)

// bruteDegrees counts, for every live object, the other objects whose stored
// UBR intersects its own — the O(n²) definition of a row's degree, read from
// nothing but the stored UBRs.
func bruteDegrees(t *testing.T, v *version) map[uint32]int {
	t.Helper()
	objs := v.db.Objects()
	ids := make([]uint32, len(objs))
	ubrs := make([][]float64, len(objs)) // lo then hi
	for i, o := range objs {
		ubr, ok := v.ubr(o.ID)
		if !ok {
			t.Fatalf("object %d has no stored UBR", o.ID)
		}
		ids[i], ubrs[i] = uint32(o.ID), append(slices.Clone(ubr.Lo), ubr.Hi...)
	}
	d := v.db.Dim()
	deg := make(map[uint32]int, len(objs))
	for i := range ubrs {
		for j := i + 1; j < len(ubrs); j++ {
			a, b := ubrs[i], ubrs[j]
			meet := true
			for k := 0; k < d && meet; k++ {
				meet = a[k] <= b[d+k] && b[k] <= a[d+k]
			}
			if meet {
				deg[ids[i]]++
				deg[ids[j]]++
			}
		}
		deg[ids[i]] += 0
	}
	return deg
}

// hashState folds an index's stored UBR bits in ID order and its sorted
// degree list into h.
func hashState(t *testing.T, h hash.Hash64, ix *Index) {
	t.Helper()
	put := func(x uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, x)) }
	objs := slices.Clone(ix.DB().Objects())
	slices.SortFunc(objs, func(a, b *uncertain.Object) int { return int(a.ID) - int(b.ID) })
	put(uint64(len(objs)))
	for _, o := range objs {
		ubr, _ := ix.UBR(o.ID)
		put(uint64(o.ID))
		for _, x := range append(slices.Clone(ubr.Lo), ubr.Hi...) {
			put(math.Float64bits(x))
		}
	}
	degs := make([]int, 0, len(objs))
	for _, n := range bruteDegrees(t, ix.current.Load()) {
		degs = append(degs, n)
	}
	slices.Sort(degs)
	for _, n := range degs {
		put(uint64(n))
	}
}

// TestStoredUBRHash pins what refinement leaves behind on a uni2-shaped and a
// uni3-shaped index with refinement at its defaults, through build, four
// insert/delete batch pairs of 16 (one insert batch also replaces an object
// under its own ID) and a save/load round trip, as two hashes: the state
// (every stored UBR bit and the UBR-intersection degree list, hashState) and
// the refinement counters. They were recorded when refinement became one
// escalated SE run and the octree clip walk went. Taken with the same stages
// on the code before that change, uni2's state hash is the same bit for bit;
// of uni3's rows two differ, where the clip had cut a face to a leaf-cell
// boundary: 607 after build (one face, 0.48 units) and after the batches 585
// (one face, 1.22) and 607 (every face, up to 0.63 — its batch recomputation
// started from the other stored UBR). SE's own Δ is 1. The counters moved
// with the clip's domination tests leaving the budget.
func TestStoredUBRHash(t *testing.T) {
	if race.Enabled {
		t.Skip("≈ 40× slower instrumented; CI's uninstrumented step runs it")
	}
	want := map[string][2]uint64{ // state, counters
		"uni2": {0x7ec23f67e05de63c, 0x13d79bff982fb70c},
		"uni3": {0xa85e123a8ad53f0b, 0x54eabb5a1dc8099c},
	}
	for _, c := range []struct {
		name    string
		n, d    int
		maxSide float64
	}{{"uni2", 2000, 2, 60}, {"uni3", 1000, 3, 400}} {
		t.Run(c.name, func(t *testing.T) {
			p := dataset.SyntheticParams{N: c.n, Dim: c.d, MaxSide: c.maxSide, Instances: 10, Seed: 3001}
			ix, err := Build(dataset.Synthetic(p), DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			hs, hc := fnv.New64a(), fnv.New64a()
			counters := func() {
				rc := ix.RefineCounters()
				for _, x := range []uint64{uint64(rc.RowsRefined), uint64(rc.RowsUnchanged), uint64(rc.BudgetSpent), math.Float64bits(rc.Threshold)} {
					hc.Write(binary.LittleEndian.AppendUint64(nil, x))
				}
			}
			hashState(t, hs, ix)
			counters()
			if ix.Build.SE.Refine.Rows == 0 {
				t.Fatal("the default configuration refined no row at build")
			}

			p.N, p.Seed = 4*16, 3002
			fresh := dataset.Synthetic(p).Objects()
			for i := 0; i < 4; i++ {
				ins, del := make([]Update, 16), make([]Update, 16)
				for k, o := range fresh[i*16 : (i+1)*16] {
					o.ID += 100_000
					ins[k], del[k] = Update{Op: OpInsert, Object: o}, Update{Op: OpDelete, ID: o.ID}
				}
				if i == 1 {
					// Replace object 7 under its own ID inside the insert batch.
					repl := *fresh[i*16]
					repl.ID = 7
					ins = append([]Update{{Op: OpDelete, ID: 7}, {Op: OpInsert, Object: &repl}}, ins...)
				}
				for _, ups := range [][]Update{ins, del} {
					if _, err := ix.ApplyBatch(ups); err != nil {
						t.Fatal(err)
					}
				}
			}
			hashState(t, hs, ix)
			counters()

			var buf bytes.Buffer
			if err := ix.SaveTo(&buf); err != nil {
				t.Fatal(err)
			}
			loaded, err := LoadFrom(&buf, ix.DB())
			if err != nil {
				t.Fatal(err)
			}
			hashState(t, hs, loaded)
			if got := math.Float64bits(loaded.RefineCounters().Threshold); got != math.Float64bits(ix.RefineCounters().Threshold) {
				t.Fatalf("loaded threshold %v, live %v", loaded.RefineCounters().Threshold, ix.RefineCounters().Threshold)
			}

			rc := ix.RefineCounters()
			got := [2]uint64{hs.Sum64(), hc.Sum64()}
			t.Logf("%s: %d rows refined, budget %d: state hash %#x, counters hash %#x", c.name, rc.RowsRefined, rc.BudgetSpent, got[0], got[1])
			if got != want[c.name] {
				t.Fatalf("stored UBR hashes %#x, recorded %#x", got, want[c.name])
			}
		})
	}
}
