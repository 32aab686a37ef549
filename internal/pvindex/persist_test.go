package pvindex

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"math"
	"math/rand"
	"strings"
	"testing"

	"pvoronoi/internal/bruteforce"
	"pvoronoi/internal/extquery"
	"pvoronoi/internal/geom"
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
	// its octree leaves, hash chains and free lists differ structurally
	// from a fresh build's.
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

	// Well-formed gobs that are not a complete PVIDX5 image: each must come
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
		{"nil Store", func(img *indexImage) { img.Store = nil }, "no page store"},
		{"nil Primary", func(img *indexImage) { img.Primary = nil }, "no primary index"},
		{"nil Secondary", func(img *indexImage) { img.Secondary = nil }, "no secondary index"},
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

// TestLoadRefusesCorruptSecondary holds LoadFrom to refusing two damaged
// secondary indexes it used to adopt with a nil error, on a d = 2 image with
// 512-byte pages: a bucket whose count field reads 0xFFFF, after which a
// lookup of an absent ID panicked, and a two-page value chain whose second
// page links back to the first, after which every save looped.
func TestLoadRefusesCorruptSecondary(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := uncertain.NewDB(geom.UnitCube(2, 100))
	for i := 0; i < 12; i++ {
		lo := geom.Point{rng.Float64() * 80, rng.Float64() * 80}
		region := geom.NewRect(lo, geom.Point{lo[0] + 1 + rng.Float64()*19, lo[1] + 1 + rng.Float64()*19})
		o := &uncertain.Object{ID: uncertain.ID(i), Region: region,
			Instances: uncertain.SampleInstances(region, uncertain.PDFUniform, 20, rng)}
		if err := db.Add(o); err != nil {
			t.Fatal(err)
		}
	}
	cfg := testConfig()
	cfg.Store = pagestore.New(512)
	ix, err := Build(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var saved bytes.Buffer
	if err := ix.SaveTo(&saved); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		edit func(t *testing.T, bucket []byte, pages map[uint32][]byte)
		want string
	}{
		{"bucket count 0xFFFF", func(_ *testing.T, bucket []byte, _ map[uint32][]byte) {
			binary.LittleEndian.PutUint16(bucket[2:4], 0xFFFF)
		}, "holds 65535 slots"},
		{"two-page chain cycle", func(t *testing.T, bucket []byte, pages map[uint32][]byte) {
			head := binary.LittleEndian.Uint32(bucket[4+8:]) // the first slot's first value page
			second := binary.LittleEndian.Uint32(pages[head][0:4])
			if second == 0 || binary.LittleEndian.Uint32(pages[second][0:4]) != 0 {
				t.Fatal("the first record does not span exactly two pages")
			}
			binary.LittleEndian.PutUint32(pages[second][0:4], head)
		}, "does not hold its"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var img indexImage
			if err := gob.NewDecoder(bytes.NewReader(saved.Bytes())).Decode(&img); err != nil {
				t.Fatal(err)
			}
			if len(img.Secondary.Dir) != 1 {
				t.Fatalf("directory of %d buckets, the test edits the only one", len(img.Secondary.Dir))
			}
			tc.edit(t, img.Store.Pages[img.Secondary.Dir[0]], img.Store.Pages)
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
