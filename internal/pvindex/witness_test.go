package pvindex

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync/atomic"
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

// verify checks every row of ix's current version against its witness list:
// the lists obey checkWitnesses (W(o) ⊆ the live objects among them), and a
// cold SE run over the C-set W(o) — l = u(o), h = the domain — lands inside
// the stored UBR. The run's UBR holds I(W(o), o) ⊇ V(o), so the two give
// UBR ⊇ PV-cell with no O(n²) oracle. The run can land outside without the
// row being wrong — a false alarm, never a false pass: at finite depth it
// fails plates the runs behind the stored UBR proved, and a failed plate
// fixes l on its face for good, so boxes that different probe orders fit
// around I(W(o), o) need not nest. A failure is therefore run again at
// escalated depth, and what that run still holds outside the stored UBR is
// sampled: each sampled point must be dominated by some witness.
func verify(ix *Index) error {
	v := ix.pin()
	defer ix.unpin(v)
	if err := checkWitnesses(v.db, v.witnesses, v.witnessed); err != nil {
		return err
	}
	opts := ix.cfg.SE
	var cset []rtree.Item
	for _, o := range v.db.Objects() {
		ubr, ok := v.ubr(o.ID)
		if !ok {
			return fmt.Errorf("object %d has no stored UBR", o.ID)
		}
		cset = cset[:0]
		for _, id := range v.witnesses.get(uint32(o.ID)) {
			cset = append(cset, rtree.Item{Rect: v.db.Get(uncertain.ID(id)).Region, ID: id})
		}
		run := func(depth int) geom.Rect {
			got, _, _ := core.Run(cset, o.Region, o.Region.Clone(), v.db.Domain.Clone(), domination.Bisect, opts.Delta, depth, nil)
			return got
		}
		if got := run(opts.MaxDepth); !ubr.ContainsRect(got) {
			got = run(core.Escalated(opts).MaxDepth)
			if p, found := undominated(got, ubr, o, cset); found {
				return fmt.Errorf("object %d: %v, outside its UBR %v, is dominated by none of its %d witnesses", o.ID, p, ubr, len(cset))
			}
		}
	}
	return nil
}

// undominated samples the slabs of box outside ubr, 64 points each, seeded
// by o's ID, and returns a point no member of cset dominates o at.
func undominated(box, ubr geom.Rect, o *uncertain.Object, cset []rtree.Item) (geom.Point, bool) {
	rng := rand.New(rand.NewSource(int64(o.ID)))
	for j := range box.Lo {
		for _, side := range [][2]float64{{box.Lo[j], ubr.Lo[j]}, {ubr.Hi[j], box.Hi[j]}} {
			if side[0] >= side[1] {
				continue
			}
			for k := 0; k < 64; k++ {
				p := make(geom.Point, len(box.Lo))
				for i := range p {
					p[i] = box.Lo[i] + rng.Float64()*(box.Hi[i]-box.Lo[i])
				}
				if p[j] = side[0] + rng.Float64()*(side[1]-side[0]); ubr.Contains(p) {
					continue
				}
				if !slices.ContainsFunc(cset, func(w rtree.Item) bool { return domination.PointDominated(w.Rect, o.Region, p) }) {
					return p, true
				}
			}
		}
	}
	return nil, false
}

// TestVerifyCatchesBrokenRows: verify passes on a built and updated index
// and reports a row whose UBR no longer holds what its witnesses leave open,
// and a row listing a dead witness.
func TestVerifyCatchesBrokenRows(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	ix, err := Build(randomDB(rng, 120, 2, 1000, 40, false), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.ApplyBatch([]Update{{Op: OpDelete, ID: 3}, {Op: OpInsert, Object: newObj(rng, 500, 2, 950, 30)}}); err != nil {
		t.Fatal(err)
	}
	if err := verify(ix); err != nil {
		t.Fatal(err)
	}
	v := ix.current.Load()
	var row uncertain.ID
	for _, o := range v.db.Objects() {
		if len(v.witnesses.get(uint32(o.ID))) > 0 {
			row = o.ID
			break
		}
	}

	// The row's UBR shrunk to u(o): its witnesses no longer cut the rest.
	w := ix.newWorking(v)
	o := w.db.Get(row)
	if err := w.putRecord(uint32(row), record{UBR: o.Region, Region: o.Region, Instances: o.Instances}); err != nil {
		t.Fatal(err)
	}
	ix.publishWorking(w, v.walSeq)
	if err := verify(ix); err == nil || !strings.Contains(err.Error(), "dominated by none") {
		t.Fatalf("a row shrunk to its region: verify says %v", err)
	}

	// A witness list naming an object that is gone.
	w = ix.newWorking(ix.current.Load())
	w.setWitnesses(uint32(row), append(slices.Clone(w.witnesses.get(uint32(row))), 1<<30))
	ix.publishWorking(w, v.walSeq)
	if err := verify(ix); err == nil || !strings.Contains(err.Error(), "not an object") {
		t.Fatalf("a dead witness: verify says %v", err)
	}
}

// TestWitnessDeleteHeavy is the witness lists' differential: seeded mixed
// batches, two deletes, two inserts and a same-ID replace each, on
// uniform and clustered data at d = 2 and 3, 50 batches per case. A twin
// index takes the same batches and is checkpointed and reopened every ten.
// After every batch: sampled points lie in the stored UBR of each object
// whose PV-cell holds them and Step 1 answers them as brute force does, every
// window degree is the brute-force count (the octree holds each row where its
// UBR reaches), verify passes, the twin's state —
// stored UBRs, witness lists and reverse index — equals the live one's, and
// the lifetime row counters moved by what the batch reported. Trap rows —
// a victim's witnessed rows whose UBR misses the victim's — are counted
// before each batch; a filter that took its candidates from Lemma 8's window
// and tested v ∈ W(o) would skip them and leave a dead witness behind, so
// the test requires some.
func TestWitnessDeleteHeavy(t *testing.T) {
	var traps, recomputed atomic.Int64
	t.Run("cases", func(t *testing.T) {
		for _, c := range []struct {
			name string
			p    dataset.SyntheticParams
		}{
			{"uni2", dataset.SyntheticParams{N: 80, Dim: 2, MaxSide: 400, Instances: 2, Seed: 4201}},
			{"clu2", dataset.SyntheticParams{N: 80, Dim: 2, MaxSide: 400, Instances: 2, Seed: 4202, Clustered: true}},
			{"uni3", dataset.SyntheticParams{N: 32, Dim: 3, MaxSide: 1500, Instances: 2, Seed: 4203}},
			{"clu3", dataset.SyntheticParams{N: 32, Dim: 3, MaxSide: 1500, Instances: 2, Seed: 4204, Clustered: true}},
		} {
			t.Run(c.name, func(t *testing.T) {
				t.Parallel()
				db := dataset.Synthetic(c.p)
				cfg := testConfig()
				cfg.SE.MaxDepth, cfg.SE.Delta = 5, 8 // the rules hold at any depth and Δ; coarse runs keep the test fast
				live, err := Build(db.Clone(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				twin, err := Build(db.Clone(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				extra := c.p
				extra.N, extra.Seed = 200, c.p.Seed+100
				fresh := dataset.Synthetic(extra).Objects()
				rng := rand.New(rand.NewSource(c.p.Seed))
				nextID := uncertain.ID(100_000)
				newcomer := func(id uncertain.ID) *uncertain.Object {
					o := *fresh[0] // each region once: equal distances would make the browse depend on the tree's shape
					fresh, o.ID = fresh[1:], id
					return &o
				}
				batches := 50
				if race.Enabled {
					batches = 10 // ≈ 20× slower instrumented; CI's uninstrumented step runs all 50
				}
				for b := 0; b < batches; b++ {
					objs := live.DB().Objects()
					perm := rng.Perm(len(objs))
					ups := []Update{{Op: OpDelete, ID: objs[perm[2]].ID}, {Op: OpInsert, Object: newcomer(objs[perm[2]].ID)}}
					for k := 0; k < 2; k++ {
						nextID++
						ups = append(ups, Update{Op: OpDelete, ID: objs[perm[k]].ID}, Update{Op: OpInsert, Object: newcomer(nextID)})
					}
					rng.Shuffle(len(ups), func(i, j int) {
						if i > 1 && j > 1 { // the replace stays a delete, then its insert
							ups[i], ups[j] = ups[j], ups[i]
						}
					})
					v := live.current.Load()
					for _, u := range ups {
						if u.Op != OpDelete {
							continue
						}
						vUBR, _ := v.ubr(u.ID)
						for _, id := range v.witnessed.get(uint32(u.ID)) {
							if ubr, _ := v.ubr(uncertain.ID(id)); !ubr.Intersects(vUBR) {
								traps.Add(1)
							}
						}
					}
					r0, p0 := live.rowsRecomputed.Load(), live.rowsPatched.Load()
					sts, err := live.ApplyBatch(ups)
					if err != nil {
						t.Fatalf("batch %d: %v", b, err)
					}
					if _, err := twin.ApplyBatch(ups); err != nil {
						t.Fatalf("batch %d, twin: %v", b, err)
					}
					var affected, patched int64
					for _, st := range sts {
						affected, patched = affected+int64(st.Affected), patched+int64(st.Affected-st.Unchanged)
					}
					recomputed.Add(affected)
					if r, p := live.rowsRecomputed.Load()-r0, live.rowsPatched.Load()-p0; r != affected || p != patched {
						t.Fatalf("batch %d: counters moved %d recomputed, %d patched; the batch reported %d, %d", b, r, p, affected, patched)
					}
					if b%10 == 9 {
						var img bytes.Buffer
						if err := twin.SaveTo(&img); err != nil {
							t.Fatal(err)
						}
						if twin, err = LoadFrom(&img, twin.DB().Clone()); err != nil {
							t.Fatalf("batch %d: reopen: %v", b, err)
						}
					}
					label := fmt.Sprintf("%s batch %d", c.name, b)
					assertSameState(t, twin, live, label)
					verifyDegrees(t, live, label)
					if err := verify(live); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					cur := live.DB()
					for k := 0; k < 8; k++ {
						q := dataset.QueryPoints(cur.Domain, 1, c.p.Seed*1000+int64(b*8+k))[0]
						want := bruteforce.PossibleNN(cur, q)
						for _, id := range want {
							if ubr, _ := live.UBR(id); !ubr.Contains(q) {
								t.Fatalf("%s: %v is in the PV-cell of %d, outside its UBR %v", label, q, id, ubr)
							}
						}
						got, err := live.PossibleNN(q)
						if err != nil || !sameIDs(idsOf(got), want) {
							t.Fatalf("%s: PossibleNN(%v) = %v (%v), brute force %v", label, q, idsOf(got), err, want)
						}
					}
				}
			})
		}
	})
	t.Logf("%d rows recomputed, %d trap rows", recomputed.Load(), traps.Load())
	if !t.Failed() && traps.Load() == 0 {
		t.Fatal("no victim witnessed a row whose UBR misses its own: the sequence no longer exercises the reverse index")
	}
}

// corruptWitnessImages re-encodes the image saved as one damaged witness
// image per rule LoadFrom checks, each with the error text it must produce.
// The cap needs more live objects than it allows; with fewer that case is
// left out.
func corruptWitnessImages(t testing.TB, saved []byte, db *uncertain.DB) map[string][]byte {
	t.Helper()
	edit := func(fn func(img *indexImage)) []byte {
		var img indexImage
		if err := gob.NewDecoder(bytes.NewReader(saved)).Decode(&img); err != nil {
			t.Fatal(err)
		}
		fn(&img)
		var out bytes.Buffer
		if err := gob.NewEncoder(&out).Encode(&img); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	// row rebuilds *li around a change to the list of its first ID.
	row := func(li **listsImage, list func(id uint32, w []uint32) []uint32) {
		l, err := listsFromImage(*li)
		if err != nil {
			t.Fatal(err)
		}
		id := (*li).IDs[0]
		l.set(id, list(id, slices.Clone(l.get(id))))
		*li = l.image()
	}
	out := map[string][]byte{
		"not an object": edit(func(img *indexImage) {
			row(&img.Witnesses, func(_ uint32, w []uint32) []uint32 { return append(w, 1<<30) })
		}),
		"lists itself": edit(func(img *indexImage) {
			row(&img.Witnesses, func(id uint32, w []uint32) []uint32 {
				i, _ := slices.BinarySearch(w, id)
				return slices.Insert(w, i, id)
			})
		}),
		"reverse": edit(func(img *indexImage) {
			row(&img.Witnessed, func(_ uint32, w []uint32) []uint32 { return w[1:] })
		}),
		"do not ascend": edit(func(img *indexImage) {
			w := img.Witnesses
			w.IDs[0], w.IDs[1] = w.IDs[1], w.IDs[0]
		}),
		"no list image": edit(func(img *indexImage) {
			img.Witnessed = nil
		}),
	}
	if db.Len() > witnessCap(db.Dim())+1 {
		out["cap"] = edit(func(img *indexImage) {
			row(&img.Witnesses, func(id uint32, _ []uint32) []uint32 {
				var all []uint32
				for _, o := range db.Objects() {
					if uint32(o.ID) != id {
						all = append(all, uint32(o.ID))
					}
				}
				slices.Sort(all)
				return all
			})
		})
	}
	return out
}

// TestLoadRefusesCorruptWitnesses holds LoadFrom to the witness image rules:
// every ID live, no row listing itself, the reverse index the transpose of
// the lists, no list past witnessCap, lists and IDs ascending; and to
// refusing a PVIDX4 image, which has no witness lists, by its name.
func TestLoadRefusesCorruptWitnesses(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	db := randomDB(rng, witnessCap(2)+40, 2, 4000, 40, false)
	ix, err := Build(db, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	var saved bytes.Buffer
	if err := ix.SaveTo(&saved); err != nil {
		t.Fatal(err)
	}
	cases := corruptWitnessImages(t, saved.Bytes(), db)
	if len(cases) != 6 {
		t.Fatalf("%d corrupt images, want 6", len(cases))
	}
	var img indexImage
	if err := gob.NewDecoder(bytes.NewReader(saved.Bytes())).Decode(&img); err != nil {
		t.Fatal(err)
	}
	img.Magic, img.Witnesses, img.Witnessed = "PVIDX4", nil, nil
	var old bytes.Buffer
	if err := gob.NewEncoder(&old).Encode(&img); err != nil {
		t.Fatal(err)
	}
	cases[`"PVIDX4"`] = old.Bytes()
	for want, data := range cases {
		if _, err := LoadFrom(bytes.NewReader(data), db); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v", want, err)
		}
	}
}
