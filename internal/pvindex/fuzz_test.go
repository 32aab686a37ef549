package pvindex

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"io"
	"maps"
	"math"
	"math/rand"
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

// decodeRecord parses a whole encoded record; recordShape has checked every
// length before the object codec allocates. No production path decodes a
// whole record — UBR reads take the header (decodeRecordUBR) and Step 2 reads
// the version's own objects — so it lives here, as the oracle the tests hold
// the stored records and the header decoder to.
func decodeRecord(buf []byte) (record, error) {
	d, n, err := recordShape(buf, len(buf))
	if err != nil {
		return record{}, err
	}
	var ubr, o uncertain.Object
	rest, _ := uncertain.DecodeObject(&ubr, buf[6:], d, 0)
	_, err = uncertain.DecodeObject(&o, rest, d, n)
	return record{UBR: ubr.Region, Region: o.Region, Instances: o.Instances}, err
}

// FuzzDecodeRecord exercises the secondary-index record decoder with
// arbitrary bytes: it must never panic, only return errors for malformed
// input, and round-trip valid encodings. Seeds include valid records and
// truncations. (Runs the seed corpus under `go test`; mutate with
// `go test -fuzz=FuzzDecodeRecord ./internal/pvindex`.)
func FuzzDecodeRecord(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	region := geom.NewRect(geom.Point{1, 2}, geom.Point{3, 4})
	valid := mustEncodeRecord(f, record{
		UBR:       geom.NewRect(geom.Point{0, 0}, geom.Point{10, 10}),
		Region:    region,
		Instances: uncertain.SampleInstances(region, uncertain.PDFUniform, 5, rng),
	})
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add(valid[:7])
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := decodeRecord(data)
		// The header-only decoder must agree with the full one on every
		// input, rejections included — given the whole record as its prefix,
		// and given only the bytes the write path asks GetPrefix for.
		prefixes := [][]byte{data}
		if len(data) >= 2 {
			d := int(data[0]) | int(data[1])<<8
			prefixes = append(prefixes, data[:min(len(data), recordUBRLen(d))])
		}
		for _, prefix := range prefixes {
			ubr, uerr := decodeRecordUBR(prefix, len(data))
			if (err == nil) != (uerr == nil) || (err != nil && err.Error() != uerr.Error()) {
				t.Fatalf("decodeRecord error %v, decodeRecordUBR(%d-byte prefix) error %v", err, len(prefix), uerr)
			}
			if err == nil && !(sameBits(ubr.Lo, rec.UBR.Lo) && sameBits(ubr.Hi, rec.UBR.Hi)) {
				t.Fatalf("decodeRecordUBR = %v, decodeRecord holds %v", ubr, rec.UBR)
			}
		}
		if err != nil {
			return
		}
		// A successful decode must re-encode to the same bytes (the format is
		// fixed-width given d and n, and floats travel as their bits).
		if out := mustEncodeRecord(t, rec); !bytes.Equal(out, data) {
			t.Fatalf("re-encode differs from input (%d vs %d bytes)", len(out), len(data))
		}
		// Positions share one backing array; a capped Pos keeps an append by
		// one caller out of its neighbor.
		for i, in := range rec.Instances {
			if cap(in.Pos) != len(in.Pos) {
				t.Fatalf("instance %d position has capacity %d beyond its length %d", i, cap(in.Pos), len(in.Pos))
			}
		}
	})
}

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
// a d = 3 database: every input must load or return an error, never panic,
// and a loaded index must answer a lookup of an absent ID and finish a save.
// Seeds are a d = 2 image, a d = 3 image, the d = 2 image as an index that
// kept an adjacency graph wrote it, and each image with its witness lists
// damaged once per rule the loader checks — each seed refused by that check,
// so mutations start next to it. (Mutate with
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

func mustEncodeRecord(t testing.TB, r record) []byte {
	t.Helper()
	buf, err := appendRecord(nil, r)
	if err != nil {
		t.Fatal(err)
	}
	return buf
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
