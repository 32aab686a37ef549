package pvindex

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"pvoronoi/internal/dataset"
	"pvoronoi/internal/geom"
	"pvoronoi/internal/pagestore"
	"pvoronoi/internal/race"
	"pvoronoi/internal/uncertain"
	"pvoronoi/internal/wal"
)

func sameRectBits(a, b geom.Rect) bool { return sameBits(a.Lo, b.Lo) && sameBits(a.Hi, b.Hi) }

// assertSameState: two indexes publish the same state bit for bit — the
// database in the same order, every stored UBR.
func assertSameState(t *testing.T, got, want *Index, label string) {
	t.Helper()
	gv, wv := got.current.Load(), want.current.Load()
	gobjs, wobjs := gv.db.Objects(), wv.db.Objects()
	if len(gobjs) != len(wobjs) {
		t.Fatalf("%s: %d objects, want %d", label, len(gobjs), len(wobjs))
	}
	differ := 0
	for i, o := range wobjs {
		if gobjs[i].ID != o.ID {
			t.Fatalf("%s: object %d of the database is %d, want %d", label, i, gobjs[i].ID, o.ID)
		}
		g, gok := got.UBR(o.ID)
		w, wok := want.UBR(o.ID)
		if !gok || !wok {
			t.Fatalf("%s: object %d has no stored UBR (got %v, want %v)", label, o.ID, gok, wok)
		}
		if !sameRectBits(g, w) {
			differ++
		}
	}
	if differ > 0 {
		t.Fatalf("%s: %d of %d stored UBRs differ", label, differ, len(wobjs))
	}
	assertPDFsMatchRecords(t, got)
	assertPDFsMatchRecords(t, want)
	assertRegionTreeIsDB(t, got, label)
	assertRegionTreeIsDB(t, want, label)
	for _, v := range []*version{gv, wv} {
		if err := checkWitnesses(v.db, v.witnesses, v.witnessed); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}
	if !reflect.DeepEqual(gv.witnesses.image(), wv.witnesses.image()) || !reflect.DeepEqual(gv.witnessed.image(), wv.witnessed.image()) {
		t.Fatalf("%s: witness lists or their reverse index differ", label)
	}
}

// assertRegionTreeIsDB: the region tree indexes exactly the database's
// objects under their own regions. The C-set selection takes its regions from
// the tree's items and never looks the IDs up, which is sound only because a
// working set mutates its database and its region tree together.
func assertRegionTreeIsDB(t *testing.T, ix *Index, label string) {
	t.Helper()
	v := ix.current.Load()
	items := v.regionTree.All(nil)
	if len(items) != v.db.Len() {
		t.Fatalf("%s: region tree holds %d items, database %d objects", label, len(items), v.db.Len())
	}
	seen := make(map[uint32]bool, len(items))
	for _, it := range items {
		if o := v.db.Get(uncertain.ID(it.ID)); o == nil || seen[it.ID] || !sameRectBits(it.Rect, o.Region) {
			t.Fatalf("%s: region tree item %d %v is not a database object's region, or a second one", label, it.ID, it.Rect)
		}
		seen[it.ID] = true
	}
}

// assertPDFsMatchRecords: the two copies of every object's pdf agree. Step 2
// reads the current version's database objects; the secondary index's
// records, which a checkpoint persists, hold a second copy. Decoded whole,
// each record must carry its object's region and instances bit for bit, and
// the index must hold no record without an object.
func assertPDFsMatchRecords(t *testing.T, ix *Index) {
	t.Helper()
	v := ix.pin()
	defer ix.unpin(v)
	objs := v.db.Objects()
	if n := v.secondary.Len(); n != len(objs) {
		t.Fatalf("secondary index holds %d records, database %d objects", n, len(objs))
	}
	for _, o := range objs {
		buf, ok, err := v.secondary.GetView(uint32(o.ID))
		if err != nil || !ok {
			t.Fatalf("object %d: no record (%v)", o.ID, err)
		}
		rec, err := decodeRecord(bytes.Clone(buf))
		if err != nil {
			t.Fatalf("object %d: %v", o.ID, err)
		}
		if !sameRectBits(rec.Region, o.Region) {
			t.Fatalf("object %d: record region %v, database %v", o.ID, rec.Region, o.Region)
		}
		if len(rec.Instances) != len(o.Instances) {
			t.Fatalf("object %d: record holds %d instances, database %d", o.ID, len(rec.Instances), len(o.Instances))
		}
		for i, in := range o.Instances {
			r := rec.Instances[i]
			if !sameBits(r.Pos, in.Pos) || math.Float64bits(r.Prob) != math.Float64bits(in.Prob) {
				t.Fatalf("object %d: record instance %d is %v, database %v", o.ID, i, r, in)
			}
		}
	}
}

// sumUBRVolume is Σ volume over every stored UBR.
func sumUBRVolume(t *testing.T, ix *Index) float64 {
	t.Helper()
	var sum float64
	for _, o := range ix.DB().Objects() {
		ubr, ok := ix.UBR(o.ID)
		if !ok {
			t.Fatalf("object %d has no stored UBR", o.ID)
		}
		sum += ubr.Volume()
	}
	return sum
}

// differentialCases are the shapes the differential tests run: dense enough
// that the sixteen inserts of a batch meet each other and the rows around
// them.
var differentialCases = []struct {
	d, n          int
	span, maxSide float64
}{
	{d: 2, n: 400, span: 600, maxSide: 30},
	{d: 3, n: 100, span: 220, maxSide: 30},
}

// differentialConfig escalates every row's SE job, or none.
func differentialConfig(t *testing.T, refine bool) Config {
	factor := math.Inf(1)
	if refine {
		factor = 0
	}
	refineFactorForTest(t, factor)
	return testConfig()
}

// TestInsertPathMatchesReference holds the one insert path to the three it
// replaced (reference_test.go). Where the old code staged against the
// published version and used the result as it stood — single inserts,
// all-insert batches — and on delete batches the two must agree bit for bit
// in every stored UBR. On mixed batches the old code went
// op-at-a-time and the new one goes run-at-a-time, so the bits may differ:
// both must then match brute force, and the Σ UBR volume ratio is logged.
func TestInsertPathMatchesReference(t *testing.T) {
	for _, c := range differentialCases {
		for _, refine := range []bool{true, false} {
			seeds := int64(3)
			if race.Enabled && c.d > 2 {
				seeds = 1 // single-writer arithmetic, ~10× slower instrumented; CI's uninstrumented step runs them all
			}
			for seed := int64(1); seed <= seeds; seed++ {
				t.Run(fmt.Sprintf("d%d/refine=%v/seed%d", c.d, refine, seed), func(t *testing.T) {
					rng := rand.New(rand.NewSource(100*int64(c.d) + seed))
					db := randomDB(rng, c.n, c.d, c.span, c.maxSide, false)
					cfg := differentialConfig(t, refine)
					ix, err := Build(db.Clone(), cfg)
					if err != nil {
						t.Fatal(err)
					}
					ref, err := Build(db.Clone(), cfg)
					if err != nil {
						t.Fatal(err)
					}
					nextID := uncertain.ID(10_000)
					fresh := func() Update {
						nextID++
						return Update{Op: OpInsert, Object: randomObject(rng, nextID, c.d, c.span, c.maxSide)}
					}
					both := func(ups []Update, label string) {
						t.Helper()
						if _, err := ix.ApplyBatch(ups); err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						if err := ref.referenceApplyBatch(ups); err != nil {
							t.Fatalf("%s (reference): %v", label, err)
						}
					}

					for i := 0; i < 8; i++ {
						both([]Update{fresh()}, "single insert")
						assertSameState(t, ix, ref, fmt.Sprintf("after single insert %d", i))
					}
					for b := 0; b < 2; b++ {
						ins, del := make([]Update, 16), make([]Update, 16)
						for k := range ins {
							ins[k] = fresh()
							del[k] = Update{Op: OpDelete, ID: ins[k].Object.ID}
						}
						both(ins, "insert batch")
						assertSameState(t, ix, ref, fmt.Sprintf("after insert batch %d", b))
						if b == 0 {
							both(del, "delete batch")
							assertSameState(t, ix, ref, "after the delete batch")
						}
					}
					if refine && ix.RefineCounters().RowsRefined == int64(ix.Build.SE.Refine.Rows) {
						t.Fatal("no batch refined a row; the case no longer exercises escalation on the write path")
					}

					victim := func() uncertain.ID {
						objs := ix.DB().Objects()
						return objs[rng.Intn(len(objs))].ID
					}
					for round := 0; round < 2; round++ {
						// Insert runs around deletes.
						ups := []Update{fresh(), fresh(), fresh(), {Op: OpDelete, ID: victim()}, fresh(), fresh()}
						both(ups, "insert runs around a delete")
						// A same-ID replace, then a run that may land in the freed space.
						id := victim()
						both([]Update{{Op: OpDelete, ID: id},
							{Op: OpInsert, Object: randomObject(rng, id, c.d, c.span, c.maxSide)}, fresh()}, "same-ID replace")
						// An ID inserted and deleted by the same batch, between two runs.
						gone := fresh()
						both([]Update{gone, fresh(), {Op: OpDelete, ID: gone.Object.ID}, fresh()}, "insert then delete of one ID")
						for _, side := range []*Index{ix, ref} {
							verifyDegrees(t, side, "after mixed batches")
							assertMatchesBruteforce(t, side, rng, c.span, c.d, 60)
						}
					}
					t.Logf("after mixed batches Σ UBR volume is %.5f × the reference's", sumUBRVolume(t, ix)/sumUBRVolume(t, ref))
				})
			}
		}
	}
}

// octreeHash folds the published primary index — pre-order over its image's
// nodes: depth, leaf or internal, a leaf's page count and every page's entry
// count and packed entries (ID, region bits) in chain order — then size,
// memory used and split count into one FNV-64a value. Page IDs are left out.
func octreeHash(t *testing.T, ix *Index) uint64 {
	t.Helper()
	v := ix.current.Load()
	img := v.primary.Image()
	h := fnv.New64a()
	put := func(x int) { h.Write(binary.LittleEndian.AppendUint64(nil, uint64(x))) }
	for _, n := range img.Nodes {
		put(int(n.Depth))
		put(len(n.Children))
		put(int(n.Pages))
		for p := pagestore.PageID(n.FirstPage); p != 0; {
			buf, err := ix.store.View(p)
			if err != nil {
				t.Fatal(err)
			}
			count := int(binary.LittleEndian.Uint32(buf[4:8]))
			h.Write(buf[4 : 8+count*(4+16*v.primary.Dim())]) // next-page ID excluded
			p = pagestore.PageID(binary.LittleEndian.Uint32(buf[0:4]))
		}
	}
	put(img.Size)
	put(img.MemUsed)
	put(img.SplitCount)
	return h.Sum64()
}

// TestBuildMatchesReference: the bulk-loaded build publishes the index the
// insert-at-a-time build loop it replaced (reference_test.go) publishes —
// the same octree node for node and entry for entry, the same record bytes,
// database order and stored UBRs, refinement on.
func TestBuildMatchesReference(t *testing.T) {
	for _, c := range []struct{ d, n int }{{2, 3000}, {3, 1000}} {
		if race.Enabled {
			c.n /= 5 // CI's uninstrumented step runs the full size
		}
		t.Run(fmt.Sprintf("d%d", c.d), func(t *testing.T) {
			db := dataset.Synthetic(dataset.SyntheticParams{N: c.n, Dim: c.d, MaxSide: 60, Instances: 10, Seed: 3})
			cfg := differentialConfig(t, true)
			ix, err := BuildParallel(db.Clone(), cfg, 2)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := referenceBuildParallel(db.Clone(), cfg, 2)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := octreeHash(t, ix), octreeHash(t, ref); got != want {
				t.Fatalf("octree %+v hashes %#x, the reference's %+v %#x", ix.PrimaryStats(), got, ref.PrimaryStats(), want)
			}
			if st := ix.PrimaryStats(); st.Internal == 0 || ix.Build.SE.Refine.Rows == 0 {
				t.Fatalf("case exercises too little: octree %+v, %d rows refined", st, ix.Build.SE.Refine.Rows)
			}
			assertSameState(t, ix, ref, "built index")
			iv, rv := ix.current.Load(), ref.current.Load()
			for _, o := range db.Objects() {
				got, _, err := iv.secondary.GetView(uint32(o.ID))
				if err != nil {
					t.Fatal(err)
				}
				want, _, err := rv.secondary.GetView(uint32(o.ID))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("object %d: record bytes differ from the reference's", o.ID)
				}
			}
		})
	}
}

// TestReplayReproducesLive: a snapshot, then six insert/delete batch pairs
// only the log knows about. Loading the snapshot and replaying the tail must
// give the live index back bit for bit — replay runs each commit group
// through the code the live batch ran, refinement included.
func TestReplayReproducesLive(t *testing.T) {
	for _, c := range differentialCases {
		t.Run(fmt.Sprintf("d%d", c.d), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(30 + c.d)))
			walDir := t.TempDir()
			log, err := wal.Open(walDir, wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer log.Close()
			cfg := differentialConfig(t, true)
			live, err := Build(randomDB(rng, c.n, c.d, c.span, c.maxSide, true), cfg)
			if err != nil {
				t.Fatal(err)
			}
			live.AttachWAL(log)
			nextID := uncertain.ID(10_000)
			pair := func() {
				objs := live.DB().Objects()
				ins, del := make([]Update, 16), make([]Update, 16)
				for k := range ins {
					nextID++
					o := randomObject(rng, nextID, c.d, c.span, c.maxSide)
					o.Instances = uncertain.SampleInstances(o.Region, uncertain.PDFUniform, 10, rng)
					ins[k] = Update{Op: OpInsert, Object: o}
					// Half the newcomers leave again, and as many older objects.
					del[k] = Update{Op: OpDelete, ID: o.ID}
					if k%2 == 1 {
						del[k].ID = objs[(k*len(objs))/16].ID
					}
				}
				for _, ups := range [][]Update{ins, del} {
					if _, err := live.ApplyBatch(ups); err != nil {
						t.Fatal(err)
					}
				}
			}
			pair()
			var snap bytes.Buffer
			var dbAtSnap *uncertain.DB
			if _, err := live.SnapshotWith(&snap, func(cur *uncertain.DB) error {
				dbAtSnap = cur.Clone()
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			refinedAtSnap := live.RefineCounters().RowsRefined
			pairs := 6
			if race.Enabled && c.d > 2 {
				pairs = 2 // as in TestInsertPathMatchesReference
			}
			for i := 0; i < pairs; i++ {
				pair()
			}
			if live.RefineCounters().RowsRefined == refinedAtSnap {
				t.Fatal("no batch after the snapshot refined a row; the case no longer exercises escalation on the write path")
			}

			log2, err := wal.Open(walDir, wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer log2.Close()
			recovered, err := LoadFrom(bytes.NewReader(snap.Bytes()), dbAtSnap)
			if err != nil {
				t.Fatal(err)
			}
			assertPDFsMatchRecords(t, recovered)
			recovered.AttachWAL(log2)
			replayed, err := recovered.Recover()
			if err != nil {
				t.Fatal(err)
			}
			if replayed != pairs*32 || recovered.WALSeq() != live.WALSeq() {
				t.Fatalf("replayed %d updates to seq %d, want %d to seq %d", replayed, recovered.WALSeq(), pairs*32, live.WALSeq())
			}
			assertSameState(t, recovered, live, "recovered index")
		})
	}
}
