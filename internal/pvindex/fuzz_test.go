package pvindex

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"io"
	"maps"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"pvoronoi/internal/dataset"
	"pvoronoi/internal/geom"
	"pvoronoi/internal/pagestore"
	"pvoronoi/internal/uncertain"
	"pvoronoi/internal/wal"
)

// objectCodecSeeds are FuzzDecodeObject's seeds: WAL insert payloads and
// dataset streams at d = 1 … 5 — no instances, −0, a NaN payload, ±Inf —
// and the rows both decoders must reject: truncations, a trailing byte, an
// instance count far beyond the input, a stream whose object is invalid or
// leaves the domain, and the gob-era forms of both framings.
func objectCodecSeeds(f *testing.F) [][]byte {
	rng := rand.New(rand.NewSource(5))
	negZero, nan := math.Copysign(0, -1), math.Float64frombits(0x7ff8_0000_dead_beef)
	var seeds [][]byte
	for d := 1; d <= 5; d++ {
		objs := []*uncertain.Object{newObj(rng, 1, d, 100, 10), newObj(rng, 2, d, 100, 10), newObj(rng, 3, d, 100, 10)}
		objs[1].Instances = uncertain.SampleInstances(objs[1].Region, uncertain.PDFUniform, 3, rng)
		objs[1].Region.Lo[0], objs[1].Instances[0].Pos[0] = negZero, negZero
		objs[2].Instances = uncertain.SampleInstances(objs[2].Region, uncertain.PDFGaussian, 2, rng)
		objs[2].Instances[1].Prob = nan
		inf := &uncertain.Object{ID: 4, Region: geom.Rect{Lo: make(geom.Point, d), Hi: make(geom.Point, d)}}
		inf.Region.Lo[0], inf.Region.Hi[d-1] = math.Inf(-1), math.Inf(1)
		db := uncertain.NewDB(geom.UnitCube(d, 100))
		for _, o := range append(objs, inf) {
			e, err := encodeUpdate(Update{Op: OpInsert, Object: o})
			if err != nil {
				f.Fatal(err)
			}
			seeds = append(seeds, e.Payload)
			if err := db.Add(o); err != nil {
				f.Fatal(err)
			}
			var stream bytes.Buffer
			if err := dataset.SaveTo(db, &stream); err != nil {
				f.Fatal(err)
			}
			seeds = append(seeds, stream.Bytes()) // valid until the NaN probability joins
		}
	}
	ins, stream := seeds[2], seeds[5] // d = 1: an insert with instances, a three-object stream
	huge := bytes.Clone(ins)
	binary.LittleEndian.PutUint32(huge[walInsertHead-4:], 1<<31)
	seeds = append(seeds, ins[:len(ins)-1], append(bytes.Clone(ins), 0), huge,
		stream[:len(stream)-3], append(bytes.Clone(stream), 0, 0))

	type walInsert struct {
		ID       uint32
		Lo, Hi   []float64
		InstPos  [][]float64
		InstProb []float64
	}
	type fileFormat struct {
		Dim                int
		DomainLo, DomainHi []float64
	}
	var gobIns, gobStream bytes.Buffer
	if err := gob.NewEncoder(&gobIns).Encode(walInsert{ID: 7, Lo: []float64{1, 1}, Hi: []float64{2, 2}}); err != nil {
		f.Fatal(err)
	}
	if err := gob.NewEncoder(&gobStream).Encode(fileFormat{Dim: 1, DomainLo: []float64{0}, DomainHi: []float64{1}}); err != nil {
		f.Fatal(err)
	}
	return append(seeds, gobIns.Bytes(), gobStream.Bytes(), nil)
}

// allocated reports the bytes fn allocates on the heap.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// finiteObject reports whether every coordinate and probability of o is
// finite.
func finiteObject(o *uncertain.Object) bool {
	ok := o.Region.Lo.IsFinite() && o.Region.Hi.IsFinite()
	for _, in := range o.Instances {
		ok = ok && in.Pos.IsFinite() && !math.IsNaN(in.Prob) && !math.IsInf(in.Prob, 0)
	}
	return ok
}

// FuzzDecodeObject drives arbitrary bytes through both framings of the
// fixed-width object codec — a WAL insert payload (decodeUpdate) and a
// dataset stream (dataset.LoadFrom). Neither may panic, neither may allocate
// more than a small multiple of its input whatever its counts claim, and a
// successful decode must re-encode to the same bytes. Floats travel as their
// bits, so a decode may carry NaN or ±Inf: such an insert must fail the check
// every batch passes before it is logged, and a dataset stream carrying one
// must not load. (Mutate with
// `go test -run '^$' -fuzz FuzzDecodeObject ./internal/pvindex`.)
func FuzzDecodeObject(f *testing.F) {
	for _, seed := range objectCodecSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		limit := 16*uint64(len(data)) + 64<<10
		var u Update
		var err error
		if n := allocated(func() { u, err = decodeUpdate(wal.Record{Seq: 1, Type: wal.TypeInsert, Payload: data}) }); n > limit {
			t.Fatalf("decoding a %d-byte insert allocated %d bytes", len(data), n)
		}
		if err == nil {
			e, err := encodeUpdate(u)
			if err != nil || !bytes.Equal(e.Payload, data) {
				t.Fatalf("insert re-encodes to %d bytes (%v), input was %d", len(e.Payload), err, len(data))
			}
			if !finiteObject(u.Object) {
				if err := validateBatch(uncertain.NewDB(geom.UnitCube(u.Object.Dim(), 100)), []Update{u}); err == nil {
					t.Fatalf("an insert carrying non-finite bits passes the check before the log: %+v", *u.Object)
				}
			}
		}
		var db *uncertain.DB
		if n := allocated(func() { db, err = dataset.LoadFrom(bytes.NewReader(data)) }); n > limit {
			t.Fatalf("decoding a %d-byte dataset stream allocated %d bytes", len(data), n)
		}
		if err == nil {
			var out bytes.Buffer
			if err := dataset.SaveTo(db, &out); err != nil || !bytes.Equal(out.Bytes(), data) {
				t.Fatalf("dataset re-encodes to %d bytes (%v), input was %d", out.Len(), err, len(data))
			}
			if !finiteObject(&uncertain.Object{Region: db.Domain}) {
				t.Fatalf("a dataset stream loaded with domain %v", db.Domain)
			}
			for _, o := range db.Objects() {
				if !finiteObject(o) {
					t.Fatalf("a dataset stream loaded with object %+v", *o)
				}
			}
		}
	})
}

// FuzzLoadImage drives arbitrary bytes through LoadFrom against a d = 2 and
// a d = 3 database and testdata/pvidx6's: every input must load or return an
// error, never panic, and a loaded index must answer a lookup of an absent ID
// and finish a save. Seeds are a d = 2 and a d = 3 PVIDX7 image, the d = 2
// image as an index that kept an adjacency graph and stored its reverse
// witness index wrote it, each image with
// its witness lists damaged once per rule the loader checks — each seed
// refused by that check, so mutations start next to it — and the PVIDX6
// fixture, octree pages and all. (Mutate with
// `go test -run '^$' -fuzz FuzzLoadImage ./internal/pvindex`.)
func FuzzLoadImage(f *testing.F) {
	var dbs []*uncertain.DB
	for _, d := range []int{2, 3} {
		rng := rand.New(rand.NewSource(int64(d)))
		db := randomDB(rng, 12, d, 100, 20, false)
		cfg := testConfig()
		cfg.Store = pagestore.New(512)
		ix, err := Build(db, cfg)
		if err != nil {
			f.Fatal(err)
		}
		var img bytes.Buffer
		if err := ix.SaveTo(&img); err != nil {
			f.Fatal(err)
		}
		seeds := [][]byte{img.Bytes()}
		if d == 2 {
			seeds = append(seeds, oldImage(f, ix, img.Bytes(), 0, 0))
		}
		for _, seed := range seeds {
			if _, err := LoadFrom(bytes.NewReader(seed), db); err != nil {
				f.Fatal(err)
			}
			f.Add(seed)
		}
		damaged := corruptWitnessImages(f, img.Bytes(), db)
		for _, want := range slices.Sorted(maps.Keys(damaged)) {
			seed := damaged[want]
			if _, err := LoadFrom(bytes.NewReader(seed), db); err == nil || !strings.Contains(err.Error(), want) {
				f.Fatalf("d = %d, witness image damaged for %q: err = %v", d, want, err)
			}
			f.Add(seed)
		}
		dbs = append(dbs, db)
	}
	db, err := dataset.Load(filepath.Join("testdata", "pvidx6", "objects.db"))
	if err != nil {
		f.Fatal(err)
	}
	paged, err := os.ReadFile(filepath.Join("testdata", "pvidx6", "index.pvidx"))
	if err != nil {
		f.Fatal(err)
	}
	if _, err := LoadFrom(bytes.NewReader(paged), db); err != nil {
		f.Fatal(err)
	}
	f.Add(paged)
	dbs = append(dbs, db)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, db := range dbs {
			ix, err := LoadFrom(bytes.NewReader(data), db)
			if err != nil {
				continue
			}
			// A loaded index is one a server would serve and checkpoint:
			// a lookup of an ID no bucket holds and a save must return.
			if _, ok := ix.UBR(1 << 30); ok {
				t.Fatal("a loaded index holds a UBR for an ID its database lacks")
			}
			_ = ix.SaveTo(io.Discard)
		}
	})
}

// sameBits compares coordinates bit for bit (NaN payloads included).
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
