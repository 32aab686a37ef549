package core

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"pvoronoi/internal/dataset"
	"pvoronoi/internal/domination"
	"pvoronoi/internal/geom"
	"pvoronoi/internal/race"
	"pvoronoi/internal/rtree"
	"pvoronoi/internal/uncertain"
)

// goldenSE pins SE's output bit for bit: for each dataset, one FNV-64a hash
// per mode over every sampled object's UBR coordinates (IEEE bits) and step
// counters, so any change of a decision, a scan order or a test count fails
// here (the failure prints the row to paste if a change of output is
// intended). The values were re-recorded when ShrinkExpand began to reuse
// covers: its partitions, hence its bits, differ from the stateless loop's on
// purpose, and goldenGuard below holds the new output to that loop instead;
// afterInsert again when those runs began to probe from h (domination.FromH):
// 1.15–1.65× fewer tests for Σ volume within +0.2 % of the stateless loop's.
// amd64 values; the Go compiler may fuse multiply-adds on other
// architectures.
var goldenSE = map[string]goldenHashes{
	"uniform/d2":   {cold: 0xee90f9ed268a594d, afterDelete: 0x198892c8a6421ce9, afterInsert: 0xaaf85ea7e3a5bf22, refine: 0x423cc53b2dcb9834},
	"uniform/d3":   {cold: 0xaa92583c29f995d9, afterDelete: 0x205382332975b375, afterInsert: 0x649328bf57ac6969, refine: 0x9b589700b330f680},
	"uniform/d5":   {cold: 0xc351a4561dad1a09, afterDelete: 0x1272c61510eda094, afterInsert: 0xe819a3342be3d77c, refine: 0x62a3a80c2d4b429e},
	"clustered/d2": {cold: 0xa423d24f2930a1de, afterDelete: 0x4039cd108df3d854, afterInsert: 0xdc7fc654b103adc5, refine: 0xa72f360a1aaeaa03},
	"clustered/d3": {cold: 0x503a2b0cbc87a0cb, afterDelete: 0xa1141ad2d975f09b, afterInsert: 0xca0ce92c45e41c06, refine: 0x9160acba8b33910a},
	"clustered/d5": {cold: 0x34926af26ae739f6, afterDelete: 0x5bb75766f2f5465d, afterInsert: 0xa4ce240a5d7f5668, refine: 0x1c9427fd80500f09},
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
				got, guard := goldenRun(clustered, d)
				guard.check(t, d)
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
// disjoint set of victims — a third of the objects, whose UBRs cover the
// domain, so the domain is the bound they pass: this row pins the bisection
// from l, TestDeleteBoundContainsCell and pvindex's TestChurnDriftBounded hold
// the bound — and the insert warm start puts them back, seeded with the
// post-delete UBRs (supersets of the final cells, as Lemma 9 needs).
func goldenRun(clustered bool, d int) (goldenHashes, goldenGuard) {
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
	var guard goldenGuard
	for i := 0; i < sample; i++ {
		o := db.Get(uncertain.ID(i * step))
		ubr, st := ComputeUBR(db, tree, o, opts)
		cold.base(ubr, st)
		guard[0].add(ubr, st.DominationTests, csetTester(db, tree, o, opts), o.Region, db.Domain, opts)

		grown, st := ComputeUBRAfterDelete(smaller, smallerTree, o, ubr, db.Domain, opts)
		del.base(grown, st)
		guard[1].add(grown, st.DominationTests, csetTester(smaller, smallerTree, o, opts), ubr, db.Domain, opts)

		back, st := ComputeUBRAfterInsert(db, tree, o, grown, opts)
		ins.base(back, st)
		guard[2].add(back, st.DominationTests, csetTester(db, tree, o, opts), o.Region, grown, opts)

		rf := NewRefiner(db, tree, o, opts, RefineOptions{DepthBoost: 3, CSetFactor: 2})
		tight, st := rf.Refine(ubr)
		guard[3].add(tight, st.Refine.DominationTests, NewRefiner(db, tree, o, opts, RefineOptions{DepthBoost: 3, CSetFactor: 2}).tester, o.Region, ubr, rf.opts)
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
	return goldenHashes{cold: cold.Sum64(), afterDelete: del.Sum64(), afterInsert: ins.Sum64(), refine: ref.Sum64()}, guard
}

// csetTester builds the domination tester of o against its C-set, as SE does.
func csetTester(db *uncertain.DB, tree *rtree.Tree, o *uncertain.Object, opts Options) *domination.Tester {
	return domination.NewTester(new(workspace).chooseCSet(nil, db, tree, o, opts), o.Region, opts.MaxDepth)
}

// goldenGuard sums, per mode (cold, afterDelete, afterInsert, refine), what
// the cover-reusing loop produced and what the stateless reference loop
// (reference_test.go) produces from the same tester inputs and bounds.
type goldenGuard [4]guardSums

type guardSums struct {
	volume, refVolume float64
	tests, refTests   int64
}

var goldenModes = [4]string{"cold", "afterDelete", "afterInsert", "refine"}

func (g *guardSums) add(ubr geom.Rect, tests int64, ref *domination.Tester, l, h geom.Rect, opts Options) {
	g.volume += ubr.Volume()
	g.tests += tests
	h = h.Clone()
	if ref != nil {
		refShrinkExpand(ref, l.Clone(), h, opts.Delta)
		g.refTests += ref.Tests
	}
	g.refVolume += h.Volume()
}

// check holds the cover-reusing loop to the reference on the sampled objects:
// UBRs in total no more than 0.5 % larger (measured: smaller on every row), at
// most half the domination tests at d ≥ 3 and two thirds at d = 2 — for
// refinement, whose probes mostly fail and leave less to reuse, two thirds at
// every d.
func (g goldenGuard) check(t *testing.T, d int) {
	t.Helper()
	for m, x := range g {
		t.Logf("%s: Σ volume %+.3f %%, tests %d -> %d (%.2f×)", goldenModes[m],
			100*(x.volume/x.refVolume-1), x.refTests, x.tests, float64(x.refTests)/float64(x.tests))
		if x.volume > 1.005*x.refVolume {
			t.Errorf("%s: Σ UBR volume %g exceeds 1.005 × the reference loop's %g", goldenModes[m], x.volume, x.refVolume)
		}
		factor := 2.0
		if d == 2 || goldenModes[m] == "refine" {
			factor = 1.5
		}
		if float64(x.tests)*factor > float64(x.refTests) {
			t.Errorf("%s: %d domination tests, want at most the reference loop's %d ÷ %.1f", goldenModes[m], x.tests, x.refTests, factor)
		}
	}
}
