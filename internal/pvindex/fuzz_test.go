package pvindex

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"pvoronoi/internal/geom"
	"pvoronoi/internal/uncertain"
)

// FuzzDecodeRecord exercises the secondary-index record decoder with
// arbitrary bytes: it must never panic, only return errors for malformed
// input, and round-trip valid encodings. Seeds include valid records and
// truncations. (Runs the seed corpus under `go test`; mutate with
// `go test -fuzz=FuzzDecodeRecord ./internal/pvindex`.)
func FuzzDecodeRecord(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	region := geom.NewRect(geom.Point{1, 2}, geom.Point{3, 4})
	valid := encodeRecord(record{
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
		if out := encodeRecord(rec); !bytes.Equal(out, data) {
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
