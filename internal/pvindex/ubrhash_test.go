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

// TestStoredUBRHash pins what refinement leaves behind on a uni2-shaped, a
// uni3-shaped and a clustered d = 2 index with refinement at its defaults,
// through build, four insert/delete batch pairs of 16 (one insert batch also
// replaces an object under its own ID) and a save/load round trip, as two
// hashes: the state (every stored UBR bit and the UBR-intersection degree
// list, hashState) and the refinement counters. The state hashes were
// re-recorded when rows began to keep witnesses: a delete recomputes only the
// rows its victim witnessed and a warm run's C-set is the row's witnesses
// plus the newcomers or the victim's witnesses, so of the stored UBRs after
// the four pairs 283 of 2 000 changed on uni2, 933 of 1 000 on uni3 and 171
// of 2 000 on clustered d = 2, nearly all of them tighter (Σ volume 0.9996,
// 0.9936 and 0.874 ×); the build's are unchanged. They were re-recorded
// again, with clustered d = 2's counters, when an insert's warm run began
// with the newcomers alone and kept every row they do not cut as it was, and
// the state hashes, with clustered d = 2's counters, once more when a
// newcomer's UBR became a cold run over the database with its whole run in
// it: after the four pairs 4 of 2 000 stored UBRs differ on uni2, 6 of 1 000
// on uni3 and 47 of 2 000 on clustered d = 2 (Σ volume within 1e-5 ×). On
// uniform data the rule escalates no row; on clustered data it must escalate
// rows at build.
func TestStoredUBRHash(t *testing.T) {
	if race.Enabled {
		t.Skip("≈ 40× slower instrumented; CI's uninstrumented step runs it")
	}
	want := map[string][2]uint64{ // state, counters
		"uni2":       {0xdd2c6ddedeefc64c, 0xa09d945a1cd8d6e5},
		"uni3":       {0xcfa00c3aaefd174d, 0xa09d945a1cd8d6e5},
		"clustered2": {0x0e5f33d2150a653a, 0x3b3e9b2a7bb38d59},
	}
	for _, c := range []struct {
		name      string
		n, d      int
		maxSide   float64
		clustered bool
	}{{"uni2", 2000, 2, 60, false}, {"uni3", 1000, 3, 400, false}, {"clustered2", 2000, 2, 60, true}} {
		t.Run(c.name, func(t *testing.T) {
			p := dataset.SyntheticParams{N: c.n, Dim: c.d, MaxSide: c.maxSide, Instances: 10, Seed: 3001, Clustered: c.clustered}
			ix, err := Build(dataset.Synthetic(p), DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			hs, hc := fnv.New64a(), fnv.New64a()
			counters := func() {
				rc := ix.RefineCounters()
				for _, x := range []uint64{uint64(rc.RowsRefined), uint64(rc.RowsUnchanged), uint64(rc.BudgetSpent)} {
					hc.Write(binary.LittleEndian.AppendUint64(nil, x))
				}
			}
			hashState(t, hs, ix)
			counters()
			if refined := ix.Build.SE.Refine.Rows > 0; refined != c.clustered {
				t.Fatalf("the default configuration refined %d rows at build", ix.Build.SE.Refine.Rows)
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

			rc := ix.RefineCounters()
			got := [2]uint64{hs.Sum64(), hc.Sum64()}
			t.Logf("%s: %d rows refined, budget %d: state hash %#x, counters hash %#x", c.name, rc.RowsRefined, rc.BudgetSpent, got[0], got[1])
			if got != want[c.name] {
				t.Fatalf("stored UBR hashes %#x, recorded %#x", got, want[c.name])
			}
		})
	}
}
