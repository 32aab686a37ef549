package pvindex

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pvoronoi/internal/bruteforce"
	"pvoronoi/internal/dataset"
	"pvoronoi/internal/extquery"
	"pvoronoi/internal/geom"
	"pvoronoi/internal/octree"
	"pvoronoi/internal/pagestore"
	"pvoronoi/internal/pnnq"
	"pvoronoi/internal/uncertain"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	db := randomDB(rng, 150, 3, 1000, 40, true)
	ix, err := Build(db, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFrom(&buf, db)
	if err != nil {
		t.Fatal(err)
	}
	// Queries must be identical to the original index and brute force.
	for iter := 0; iter < 100; iter++ {
		q := geom.Point{rng.Float64() * 1000, rng.Float64() * 1000, rng.Float64() * 1000}
		a, err := ix.PossibleNN(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := loaded.PossibleNN(q)
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDs(idsOf(a), idsOf(b)) {
			t.Fatalf("q=%v: original %v loaded %v", q, idsOf(a), idsOf(b))
		}
		if !sameIDs(idsOf(b), bruteforce.PossibleNN(db, q)) {
			t.Fatalf("q=%v: loaded index wrong vs brute force", q)
		}
	}
	// Stored records (UBR + instances) must survive.
	for _, o := range db.Objects() {
		ua, _ := ix.UBR(o.ID)
		ub, ok := loaded.UBR(o.ID)
		if !ok || !ua.Equal(ub) {
			t.Fatalf("object %d UBR mismatch after load", o.ID)
		}
		ins, err := instancesOf(loaded, o.ID)
		if err != nil || len(ins) != len(o.Instances) {
			t.Fatalf("object %d instances corrupted: %v", o.ID, err)
		}
	}
}

// TestLoadsImageWithMaxDiag: a checkpoint written while the adjacency image
// still carried MaxDiag loads with the current code — gob skips the field —
// into the same state and the same extension answers. The old bytes are the
// current image re-encoded in the old types (reference_test.go) with the
// diameter the old graph tracked; they differ from the same re-encoding
// without it by that field alone.
func TestLoadsImageWithMaxDiag(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	db := randomDB(rng, 120, 2, 1000, 40, true)
	ix, err := Build(db, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.ApplyBatch([]Update{{Op: OpDelete, ID: 3}, {Op: OpInsert, Object: newObj(rng, 500, 2, 950, 30)}}); err != nil {
		t.Fatal(err)
	}
	var cur bytes.Buffer
	if err := ix.SaveTo(&cur); err != nil {
		t.Fatal(err)
	}
	var maxDiag float64
	for _, o := range ix.DB().Objects() {
		maxDiag = max(maxDiag, geom.Dist(o.Region.Lo, o.Region.Hi))
	}
	base := oldImage(t, ix, cur.Bytes(), 0, 0)
	old := bytes.NewBuffer(oldImage(t, ix, cur.Bytes(), maxDiag, 0))
	if grown := old.Len() - len(base); grown <= 0 || grown > 16 {
		t.Fatalf("old image is %d bytes, without MaxDiag %d: want MaxDiag's few bytes more", old.Len(), len(base))
	}
	t.Logf("old image %d bytes, current %d", old.Len(), cur.Len())

	loaded := loadOldImage(t, ix, old)
	assertSameState(t, loaded, ix, "old image")
	for iter := 0; iter < 40; iter++ {
		q := geom.Point{rng.Float64()*1200 - 100, rng.Float64()*1200 - 100}
		qs := []geom.Point{q, {q[0] + 200, q[1] - 100}, {rng.Float64() * 1000, rng.Float64() * 1000}}
		for _, k := range []int{1, 8} {
			a, _, err := ix.KNNCandidatesOnly(q, k)
			if err != nil {
				t.Fatal(err)
			}
			b, _, err := loaded.KNNCandidatesOnly(q, k)
			if err != nil || !sameIDs(a, b) {
				t.Fatalf("kNN k=%d at %v: loaded %v (%v), live %v", k, q, b, err, a)
			}
		}
		for _, agg := range []extquery.Agg{extquery.AggSum, extquery.AggMax} {
			a, _, err := ix.GroupNNCandidatesOnly(qs, agg)
			if err != nil {
				t.Fatal(err)
			}
			b, _, err := loaded.GroupNNCandidatesOnly(qs, agg)
			if err != nil || !sameIDs(a, b) {
				t.Fatalf("group-NN agg=%d at %v: loaded %v (%v), live %v", agg, qs, b, err, a)
			}
		}
		a, _, err := ix.RNNCandidates(q)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := loaded.RNNCandidates(q)
		if err != nil || !sameIDs(a, b) {
			t.Fatalf("RNN at %v: loaded %v (%v), live %v", q, b, err, a)
		}
	}
}

// TestLoadsImageWithAdjacencyGraph: a checkpoint written while the index
// kept an adjacency graph and five refinement knobs loads with the current
// code — gob skips the graph, the knobs and the refinement cutoff — into the
// same stored UBRs, and the next batch does on the loaded index what it does
// on the live one.
func TestLoadsImageWithAdjacencyGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	db := randomDB(rng, 120, 2, 1000, 40, true)
	ix, err := Build(db, aggressiveRefine(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.ApplyBatch([]Update{{Op: OpDelete, ID: 3}, {Op: OpInsert, Object: newObj(rng, 500, 2, 950, 30)}}); err != nil {
		t.Fatal(err)
	}
	var cur bytes.Buffer
	if err := ix.SaveTo(&cur); err != nil {
		t.Fatal(err)
	}
	old := oldImage(t, ix, cur.Bytes(), 0, 0)
	for _, field := range []string{"Adjacency", "Flat", "TopFraction", "MinDegree"} {
		if !bytes.Contains(old, []byte(field)) {
			t.Fatalf("old image does not declare %s", field)
		}
	}
	loaded := loadOldImage(t, ix, bytes.NewReader(old))
	assertSameState(t, loaded, ix, "old image")
	ups := []Update{{Op: OpDelete, ID: 5}, {Op: OpInsert, Object: newObj(rng, 501, 2, 950, 30)}, {Op: OpInsert, Object: newObj(rng, 502, 2, 950, 30)}}
	for _, side := range []*Index{ix, loaded} {
		if _, err := side.ApplyBatch(ups); err != nil {
			t.Fatal(err)
		}
	}
	assertSameState(t, loaded, ix, "after a batch on both")
}

func TestLoadedIndexSupportsUpdates(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	db := randomDB(rng, 100, 2, 800, 35, false)
	ix, err := Build(db, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFrom(&buf, db)
	if err != nil {
		t.Fatal(err)
	}
	// Incremental maintenance must keep working on the loaded index.
	for i := 0; i < 10; i++ {
		lo := geom.Point{rng.Float64() * 750, rng.Float64() * 750}
		o := &uncertain.Object{
			ID:     uncertain.ID(2000 + i),
			Region: geom.NewRect(lo, geom.Point{lo[0] + 20, lo[1] + 20}),
		}
		if _, err := loaded.Insert(o); err != nil {
			t.Fatalf("insert on loaded index: %v", err)
		}
	}
	for i := 0; i < 10; i++ {
		if _, err := loaded.Delete(uncertain.ID(i)); err != nil {
			t.Fatalf("delete on loaded index: %v", err)
		}
	}
	for iter := 0; iter < 80; iter++ {
		q := geom.Point{rng.Float64() * 800, rng.Float64() * 800}
		got, err := loaded.PossibleNN(q)
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDs(idsOf(got), bruteforce.PossibleNN(loaded.DB(), q)) {
			t.Fatalf("loaded+updated index wrong at %v", q)
		}
	}
}

// TestLoadsImageWithRecordCacheField: a checkpoint written while the index
// still sized a decoded-record cache from its image loads with the current
// code — gob skips the field — into the same state (stored UBRs, the pdfs of
// both copies) and the same Step-2 answers. The old bytes are the current
// image re-encoded in the old types (reference_test.go) with a non-default
// cache size; they differ from the same re-encoding without it by that field
// alone.
func TestLoadsImageWithRecordCacheField(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := randomDB(rng, 60, 2, 500, 25, true)
	ix, err := Build(db, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.ApplyBatch([]Update{{Op: OpDelete, ID: 3}, {Op: OpInsert, Object: newObj(rng, 500, 2, 480, 25)}}); err != nil {
		t.Fatal(err)
	}
	var cur bytes.Buffer
	if err := ix.SaveTo(&cur); err != nil {
		t.Fatal(err)
	}
	base := oldImage(t, ix, cur.Bytes(), 0, 0)
	old := bytes.NewBuffer(oldImage(t, ix, cur.Bytes(), 0, 128))
	if grown := old.Len() - len(base); grown <= 0 || grown > 8 {
		t.Fatalf("old image is %d bytes, without the cache size %d: want its few bytes more", old.Len(), len(base))
	}
	loaded := loadOldImage(t, ix, old)
	assertSameState(t, loaded, ix, "old image")
	for iter := 0; iter < 60; iter++ {
		q := geom.Point{rng.Float64() * 500, rng.Float64() * 500}
		a, err := ix.Snapshot(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := loaded.Snapshot(q)
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDs(idsOf(a.Candidates), idsOf(b.Candidates)) {
			t.Fatalf("q=%v: loaded %v, live %v", q, idsOf(b.Candidates), idsOf(a.Candidates))
		}
		got, want := snapshotAnswer(b, q), snapshotAnswer(a, q)
		if len(got) != len(want) {
			t.Fatalf("q=%v: loaded answers %v, live %v", q, got, want)
		}
		for i := range got {
			if got[i].ID != want[i].ID || math.Float64bits(got[i].Prob) != math.Float64bits(want[i].Prob) {
				t.Fatalf("q=%v: loaded answers %v, live %v", q, got, want)
			}
		}
	}
}

// snapshotAnswer runs Step 2 over a snapshot.
func snapshotAnswer(s *QuerySnapshot, q geom.Point) []pnnq.Result {
	data := make([]pnnq.CandidateData, len(s.Candidates))
	for i, c := range s.Candidates {
		data[i] = pnnq.CandidateData{ID: c.ID, Instances: s.Instances[i]}
	}
	return pnnq.Compute(data, q)
}

func TestSaveLoadAfterUpdateTraffic(t *testing.T) {
	// Round-trip an index that has seen post-build Insert/Delete traffic —
	// its UBRs and witness lists are no fresh build's, and its octree's
	// leaves differ from the one the load bulk-loads.
	rng := rand.New(rand.NewSource(8))
	db := randomDB(rng, 120, 2, 800, 30, true)
	ix, err := Build(db, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		lo := geom.Point{rng.Float64() * 750, rng.Float64() * 750}
		o := &uncertain.Object{
			ID:     uncertain.ID(3000 + i),
			Region: geom.NewRect(lo, geom.Point{lo[0] + 18, lo[1] + 18}),
		}
		o.Instances = uncertain.SampleInstances(o.Region, uncertain.PDFUniform, 20, rng)
		if _, err := ix.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 25; i++ {
		if _, err := ix.Delete(uncertain.ID(i)); err != nil {
			t.Fatal(err)
		}
	}

	// Load against the current version's database — the bootstrap handle is
	// version 1's snapshot and no longer matches the updated index.
	cur := ix.DB()
	var buf bytes.Buffer
	if err := ix.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFrom(&buf, cur)
	if err != nil {
		t.Fatal(err)
	}
	for iter := 0; iter < 100; iter++ {
		q := geom.Point{rng.Float64() * 800, rng.Float64() * 800}
		a, err := ix.PossibleNN(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := loaded.PossibleNN(q)
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDs(idsOf(a), idsOf(b)) {
			t.Fatalf("q=%v: original %v loaded %v", q, idsOf(a), idsOf(b))
		}
		if !sameIDs(idsOf(b), bruteforce.PossibleNN(cur, q)) {
			t.Fatalf("q=%v: loaded updated index wrong vs brute force", q)
		}
	}
	for _, o := range cur.Objects() {
		ua, _ := ix.UBR(o.ID)
		ub, ok := loaded.UBR(o.ID)
		if !ok || !ua.Equal(ub) {
			t.Fatalf("object %d UBR mismatch after load of updated index", o.ID)
		}
		ins, err := instancesOf(loaded, o.ID)
		if err != nil || len(ins) != len(o.Instances) {
			t.Fatalf("object %d instances corrupted: %v", o.ID, err)
		}
	}
	// The loaded index keeps supporting updates.
	if _, err := loaded.Delete(cur.Objects()[0].ID); err != nil {
		t.Fatal(err)
	}
}

func TestLoadRejectsMismatchedDB(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	db := randomDB(rng, 50, 2, 500, 25, false)
	ix, err := Build(db, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}
	// Different cardinality.
	other := randomDB(rng, 49, 2, 500, 25, false)
	if _, err := LoadFrom(bytes.NewReader(buf.Bytes()), other); err == nil {
		t.Fatal("load accepted a database with different cardinality")
	}
	// Same cardinality, different IDs.
	shifted := uncertain.NewDB(db.Domain)
	for i, o := range db.Objects() {
		_ = shifted.Add(&uncertain.Object{ID: uncertain.ID(5000 + i), Region: o.Region})
	}
	if _, err := LoadFrom(bytes.NewReader(buf.Bytes()), shifted); err == nil {
		t.Fatal("load accepted a database with foreign IDs")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	db := randomDB(rng, 10, 2, 100, 10, false)
	if _, err := LoadFrom(bytes.NewReader([]byte("junk")), db); err == nil {
		t.Fatal("garbage accepted")
	}

	// Well-formed gobs that are not a complete PVIDX7 image: each must come
	// back as an error naming what is wrong — OpenDurable's fallback to an
	// older checkpoint depends on an error, not a panic.
	ix, err := Build(db, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	var saved bytes.Buffer
	if err := ix.SaveTo(&saved); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(*indexImage)
		want   string
	}{
		{"PVIDX3 magic", func(img *indexImage) { img.Magic = "PVIDX3" }, `"PVIDX3"`},
		{"PVIDX5 magic", func(img *indexImage) { img.Magic = "PVIDX5" }, `older format: "PVIDX5"`},
		{"nil Pages", func(img *indexImage) { img.Pages = nil }, "no page size"},
		{"zero page size", func(img *indexImage) { img.Pages.PageSize = 0 }, "no page size"},
		{"page of no entry", func(img *indexImage) { img.Pages.PageSize = 40 }, "page size 40 outside"},
		{"page past the bound", func(img *indexImage) { img.Pages.PageSize = 1 << 40 }, "page size 1099511627776 outside"},
		{"nil UBRs", func(img *indexImage) { img.UBRs = nil }, "no UBR image"},
	} {
		var img indexImage
		if err := gob.NewDecoder(bytes.NewReader(saved.Bytes())).Decode(&img); err != nil {
			t.Fatal(err)
		}
		tc.mutate(&img)
		var forged bytes.Buffer
		if err := gob.NewEncoder(&forged).Encode(&img); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadFrom(&forged, db); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// TestLoadRefusesCorruptUBRs holds LoadFrom to refusing a UBR table that
// does not give each database object exactly one finite box, ascending by ID.
func TestLoadRefusesCorruptUBRs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := randomDB(rng, 12, 2, 100, 10, false)
	ix, err := Build(db, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	var saved bytes.Buffer
	if err := ix.SaveTo(&saved); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		edit func(u *ubrImage)
		want string
	}{
		{"no table", func(u *ubrImage) { *u = ubrImage{} }, "0 UBRs for 12 objects"},
		{"short coordinates", func(u *ubrImage) { u.Coords = u.Coords[:len(u.Coords)-1] }, "47 coordinates do not give each of 12 IDs"},
		{"missing object", func(u *ubrImage) { u.IDs, u.Coords = u.IDs[1:], u.Coords[4:] }, "11 UBRs for 12 objects"},
		{"ids out of order", func(u *ubrImage) { u.IDs[1], u.IDs[2] = u.IDs[2], u.IDs[1] }, "do not ascend"},
		{"stranger", func(u *ubrImage) { u.IDs[len(u.IDs)-1] = 1 << 20 }, "not an object"},
		{"NaN corner", func(u *ubrImage) { u.Coords[0] = math.NaN() }, "not a finite box"},
		{"inverted box", func(u *ubrImage) { u.Coords[0] = u.Coords[2] + 1 }, "not a finite box"},
		{"infinite corner", func(u *ubrImage) { u.Coords[3] = math.Inf(1) }, "not a finite box"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var img indexImage
			if err := gob.NewDecoder(bytes.NewReader(saved.Bytes())).Decode(&img); err != nil {
				t.Fatal(err)
			}
			tc.edit(img.UBRs)
			var forged bytes.Buffer
			if err := gob.NewEncoder(&forged).Encode(&img); err != nil {
				t.Fatal(err)
			}
			if _, err := LoadFrom(&forged, db); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one containing %q", err, tc.want)
			}
		})
	}
}

// TestLoadRebuildsOctree: the octree is derived state. After churn, a loaded
// index holds the tree a fresh bulk load over the saved UBRs in database
// order builds — not the shape the saving index had reached — which passes
// Validate, and it answers 1 000 PNNQ, kNN and group-NN queries exactly as
// the index that saved it.
func TestLoadRebuildsOctree(t *testing.T) {
	for _, d := range []int{2, 3} {
		t.Run(fmt.Sprintf("d%d", d), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(90 + d)))
			cfg := testConfig()
			cfg.Store = pagestore.New(512)
			ix, err := Build(randomDB(rng, 300, d, 1000, 60, true), cfg)
			if err != nil {
				t.Fatal(err)
			}
			next := uncertain.ID(5000)
			for range 6 {
				objs := ix.DB().Objects()
				var ins, del []Update
				for k := range 8 {
					next++
					o := randomObject(rng, next, d, 1000, 60)
					o.Instances = uncertain.SampleInstances(o.Region, uncertain.PDFUniform, 10, rng)
					ins = append(ins, Update{Op: OpInsert, Object: o})
					del = append(del, Update{Op: OpDelete, ID: objs[(k*len(objs))/8].ID})
				}
				for _, ups := range [][]Update{ins, del} {
					if _, err := ix.ApplyBatch(ups); err != nil {
						t.Fatal(err)
					}
				}
			}
			var buf bytes.Buffer
			if err := ix.SaveTo(&buf); err != nil {
				t.Fatal(err)
			}
			loaded, err := LoadFrom(&buf, ix.DB())
			if err != nil {
				t.Fatal(err)
			}
			v := loaded.current.Load()
			if err := v.primary.Validate(); err != nil {
				t.Fatalf("loaded octree: %v", err)
			}
			store := pagestore.New(512)
			fresh, err := octree.New(octree.Config{Domain: v.db.Domain, Store: store, MemBudget: cfg.MemBudget})
			if err != nil {
				t.Fatal(err)
			}
			var items []octree.BulkItem
			for _, o := range v.db.Objects() {
				ubr, _ := v.ubr(o.ID)
				items = append(items, octree.BulkItem{Entry: octree.Entry{ID: uint32(o.ID), Region: o.Region}, UBR: ubr})
			}
			if err := fresh.BulkLoad(items); err != nil {
				t.Fatal(err)
			}
			got := octreeHash(t, loaded)
			if want := treeHash(t, store, fresh); got != want {
				t.Fatalf("loaded octree %+v hashes %#x, a fresh bulk load %+v %#x", loaded.PrimaryStats(), got, fresh.TreeStats(), want)
			}
			if got == octreeHash(t, ix) {
				t.Fatal("the churned octree has the bulk-loaded shape: the case no longer shows a rebuild")
			}
			assertSameState(t, loaded, ix, "loaded index")
			assertSameAnswers(t, loaded, ix, v.db.Domain, rng, 1000)
		})
	}
}

// TestLoadsPVIDX6: testdata/pvidx6 holds an image the last PVIDX6 build
// saved — octree pages and skeleton beside the UBR table, witness lists and
// their reverse index — after four insert/delete batch pairs of eight over
// 150 d = 2 objects on 512-byte pages, and the database it was saved over.
// It loads, gob skipping the octree and the reverse index, into the saved
// UBRs on pages of the saved size and a derived reverse index equal to the
// stored one, answers as a fresh build over the same objects does, and saves
// a PVIDX7 image that loads into the same state.
func TestLoadsPVIDX6(t *testing.T) {
	db, err := dataset.Load(filepath.Join("testdata", "pvidx6", "objects.db"))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join("testdata", "pvidx6", "index.pvidx"))
	if err != nil {
		t.Fatal(err)
	}
	var saved struct {
		Magic     string
		UBRs      *ubrImage
		Witnessed *listsImage
	}
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&saved); err != nil || saved.Magic != "PVIDX6" {
		t.Fatalf("fixture magic %q (%v), want PVIDX6", saved.Magic, err)
	}
	loaded, err := LoadFrom(bytes.NewReader(raw), db)
	if err != nil {
		t.Fatal(err)
	}
	v := loaded.current.Load()
	if !reflect.DeepEqual(v.ubrs.image(), saved.UBRs) || loaded.Store().PageSize() != 512 {
		t.Fatalf("loaded UBR table or page size %d is not the image's", loaded.Store().PageSize())
	}
	if saved.Witnessed == nil || !reflect.DeepEqual(v.witnessed.image(), saved.Witnessed) {
		t.Fatal("the reverse index derived on load is not the one the fixture stored")
	}
	if err := v.primary.Validate(); err != nil {
		t.Fatalf("loaded octree: %v", err)
	}
	fresh, err := Build(db.Clone(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	assertSameAnswers(t, loaded, fresh, db.Domain, rand.New(rand.NewSource(6)), 300)

	var resaved bytes.Buffer
	if err := loaded.SaveTo(&resaved); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(resaved.Bytes(), []byte(persistMagic)) {
		t.Fatalf("re-saved image does not carry %s", persistMagic)
	}
	reloaded, err := LoadFrom(&resaved, db)
	if err != nil {
		t.Fatal(err)
	}
	assertSameState(t, reloaded, loaded, "re-saved image")
}

// assertSameAnswers: got answers n PNNQ, kNN (k 4) and group-NN (three
// points, sum) queries at random points of domain exactly as want does.
func assertSameAnswers(t *testing.T, got, want *Index, domain geom.Rect, rng *rand.Rand, n int) {
	t.Helper()
	point := func() geom.Point {
		p := make(geom.Point, domain.Dim())
		for j := range p {
			p[j] = domain.Lo[j] + rng.Float64()*(domain.Hi[j]-domain.Lo[j])
		}
		return p
	}
	for range n {
		q, qs := point(), []geom.Point{point(), point(), point()}
		var answers [2][3]any
		for i, ix := range []*Index{got, want} {
			snap, err := ix.Snapshot(q)
			if err != nil {
				t.Fatal(err)
			}
			knn, err := ix.KNNSnapshot(q, 4)
			if err != nil {
				t.Fatal(err)
			}
			gnn, err := ix.GroupNNSnapshot(qs, extquery.AggSum)
			if err != nil {
				t.Fatal(err)
			}
			answers[i] = [3]any{
				snapshotAnswer(snap, q),
				extquery.KNNScores(knn.IDs, knn.Instances, q, 4),
				extquery.GroupNNScores(gnn.IDs, gnn.Instances, qs, extquery.AggSum),
			}
		}
		for k, kind := range []string{"PNNQ", "kNN", "group-NN"} {
			if !reflect.DeepEqual(answers[0][k], answers[1][k]) {
				t.Fatalf("%s at %v / %v: %v, want %v", kind, q, qs, answers[0][k], answers[1][k])
			}
		}
	}
}
