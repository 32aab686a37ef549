package core

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"pvoronoi/internal/dataset"
	"pvoronoi/internal/geom"
	"pvoronoi/internal/race"
	"pvoronoi/internal/uncertain"
)

// goldenSE pins SE's output bit for bit: for each dataset, one FNV-64a hash
// per mode over every sampled object's UBR coordinates (IEEE bits) and step
// counters. The values were recorded by running this test at the commit
// before the flat domination kernel landed, so a kernel that changes any
// decision, any scan order or any test count fails here (the failure prints
// the row to paste if a change of output is intended). amd64 values; the Go
// compiler may fuse multiply-adds on other architectures.
var goldenSE = map[string]goldenHashes{
	"uniform/d2":   {cold: 0xd54c993c57156ff4, afterDelete: 0x7a01c36842c1e16a, afterInsert: 0x2123c68bc72bda25, refine: 0x9361434f8ec6a114},
	"uniform/d3":   {cold: 0xce1909fef355055e, afterDelete: 0x8bcaf71493bffbac, afterInsert: 0xa5fb940f27cec2f9, refine: 0xb8152d3e5b17bc3},
	"uniform/d5":   {cold: 0x2b14bff0997ef95d, afterDelete: 0x73abcc53e9a22e4d, afterInsert: 0xc1c484bcb4fe721b, refine: 0x77382c3d748f6ae1},
	"clustered/d2": {cold: 0xdeb465f303ba1dfd, afterDelete: 0x7c8976105cc59d5d, afterInsert: 0x2da9d345befc82a7, refine: 0x9d3aa8f36c11d0ef},
	"clustered/d3": {cold: 0xe1e16d892fb957e7, afterDelete: 0x193022b79e780825, afterInsert: 0xeefe695622d65b8d, refine: 0xc4608c297ac16dc6},
	"clustered/d5": {cold: 0xd4714d67c724f07f, afterDelete: 0x14951565ee95f29e, afterInsert: 0xc000817be658a772, refine: 0x465ac3ca601a17ed},
}

type goldenHashes struct{ cold, afterDelete, afterInsert, refine uint64 }

// goldenSample is the number of objects hashed per dataset: 400 in total.
var goldenSample = map[int]int{2: 120, 3: 70, 5: 10}

type seHasher struct{ hash.Hash64 }

func newSEHasher() seHasher { return seHasher{fnv.New64a()} }

func (s seHasher) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	_, _ = s.Write(b[:]) // hash.Hash.Write never fails
}

func (s seHasher) rect(r geom.Rect) {
	for j := range r.Lo {
		s.u64(math.Float64bits(r.Lo[j]))
		s.u64(math.Float64bits(r.Hi[j]))
	}
}

func (s seHasher) base(ubr geom.Rect, st Stats) {
	s.rect(ubr)
	s.u64(uint64(st.CSetSize))
	s.u64(uint64(st.Iterations))
	s.u64(uint64(st.Shrinks))
	s.u64(uint64(st.Expands))
	s.u64(uint64(st.DominationTests))
}

func TestGoldenSE(t *testing.T) {
	for _, clustered := range []bool{false, true} {
		for _, d := range []int{2, 3, 5} {
			name := fmt.Sprintf("uniform/d%d", d)
			if clustered {
				name = fmt.Sprintf("clustered/d%d", d)
			}
			t.Run(name, func(t *testing.T) {
				if race.Enabled && d > 2 {
					// Single-goroutine arithmetic, ~17× slower instrumented;
					// CI asserts these rows in its uninstrumented step.
					t.Skip("d > 2 golden rows are not run under -race")
				}
				got := goldenRun(clustered, d)
				if want := goldenSE[name]; got != want {
					t.Errorf("SE output changed; now\n\t%q: {cold: %#x, afterDelete: %#x, afterInsert: %#x, refine: %#x},",
						name, got.cold, got.afterDelete, got.afterInsert, got.refine)
				}
			})
		}
	}
}

// goldenRun computes the four mode hashes of one dataset. The sample is every
// step-th object; the delete warm start runs against the database minus a
// disjoint set of victims, and the insert warm start puts them back, seeded
// with the post-delete UBRs (supersets of the final cells, as Lemma 9 needs).
func goldenRun(clustered bool, d int) goldenHashes {
	const n = 1500
	db := dataset.Synthetic(dataset.SyntheticParams{N: n, Dim: d, Seed: int64(40 + d), Clustered: clustered})
	tree := BuildRegionTree(db, 32)
	opts := DefaultOptions()
	sample := goldenSample[d]
	step := n / sample

	smaller := db.Clone()
	for i := 1; i < n; i += 3 {
		if i%step != 0 {
			_, _ = smaller.Remove(uncertain.ID(i)) // present by construction
		}
	}
	smallerTree := BuildRegionTree(smaller, 32)

	cold, del, ins, ref := newSEHasher(), newSEHasher(), newSEHasher(), newSEHasher()
	for i := 0; i < sample; i++ {
		o := db.Get(uncertain.ID(i * step))
		ubr, st := ComputeUBR(db, tree, o, opts)
		cold.base(ubr, st)

		grown, st := ComputeUBRAfterDelete(smaller, smallerTree, o, ubr, opts)
		del.base(grown, st)

		back, st := ComputeUBRAfterInsert(db, tree, o, grown, opts)
		ins.base(back, st)

		rf := NewRefiner(db, tree, o, opts, RefineOptions{DepthBoost: 3, CSetFactor: 2})
		tight, st := rf.Refine(ubr)
		ref.rect(tight)
		ref.u64(uint64(st.Refine.CSetSize))
		ref.u64(uint64(st.Refine.Iterations))
		ref.u64(uint64(st.Refine.Shrinks))
		ref.u64(uint64(st.Refine.DominationTests))
		// The clip walk probes arbitrary boxes through the same tester.
		probe := tight.Clone()
		probe.Hi[0] = (probe.Lo[0] + probe.Hi[0]) / 2
		if rf.Prunable(probe) {
			ref.u64(1)
		}
		ref.u64(uint64(rf.Tests()))
	}
	return goldenHashes{cold: cold.Sum64(), afterDelete: del.Sum64(), afterInsert: ins.Sum64(), refine: ref.Sum64()}
}
