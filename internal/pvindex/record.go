package pvindex

import (
	"encoding/binary"
	"fmt"
	"math"

	"pvoronoi/internal/geom"
	"pvoronoi/internal/uncertain"
)

// record is the secondary-index payload for one object: its UBR, its
// uncertainty region, and the discretized pdf (§VI-A: "for every entry ...
// we store the object's UBR, as well as its uncertainty pdf").
type record struct {
	UBR       geom.Rect
	Region    geom.Rect
	Instances []uncertain.Instance
}

// encodeRecord serializes r. Layout:
//
//	dim uint16 | nInstances uint32 | UBR lo/hi (2d float64) |
//	region lo/hi (2d float64) | instances (d+1 float64 each)
//
// The first recordUBRLen(d) bytes are self-sufficient: together with the
// value's total length they validate the whole record's shape and yield the
// UBR (decodeRecordUBR), so the write path never reads past them.
func encodeRecord(r record) []byte {
	d := r.UBR.Dim()
	n := len(r.Instances)
	buf := make([]byte, 2+4+2*8*d+2*8*d+n*(8*d+8))
	binary.LittleEndian.PutUint16(buf[0:2], uint16(d))
	binary.LittleEndian.PutUint32(buf[2:6], uint32(n))
	off := 6
	putRect := func(rc geom.Rect) {
		for j := 0; j < d; j++ {
			binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(rc.Lo[j]))
			off += 8
		}
		for j := 0; j < d; j++ {
			binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(rc.Hi[j]))
			off += 8
		}
	}
	putRect(r.UBR)
	putRect(r.Region)
	for _, in := range r.Instances {
		for j := 0; j < d; j++ {
			binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(in.Pos[j]))
			off += 8
		}
		binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(in.Prob))
		off += 8
	}
	return buf
}

// recordUBRLen is the length of a d-dimensional record's prefix up to and
// including its UBR.
func recordUBRLen(d int) int { return 2 + 4 + 2*8*d }

// recordShape reads the dimension and instance count from a record's first
// bytes and checks them against the record's total length.
func recordShape(head []byte, total int) (d, n int, err error) {
	if total < 6 || len(head) < 6 {
		return 0, 0, fmt.Errorf("pvindex: record too short (%d bytes)", total)
	}
	d = int(binary.LittleEndian.Uint16(head[0:2]))
	n = int(binary.LittleEndian.Uint32(head[2:6]))
	if want := 2 + 4 + 4*8*d + n*(8*d+8); total != want {
		return 0, 0, fmt.Errorf("pvindex: record length %d, want %d (d=%d, n=%d)", total, want, d, n)
	}
	return d, n, nil
}

// getFloats decodes len(dst) consecutive float64s from buf.
func getFloats(dst []float64, buf []byte) {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
}

// getRect decodes a rectangle (d lows, then d highs) into one array.
func getRect(buf []byte, d int) geom.Rect {
	c := make([]float64, 2*d)
	getFloats(c, buf)
	return geom.Rect{Lo: c[:d:d], Hi: c[d:]}
}

// decodeRecordUBR returns the UBR of a record from its prefix (at least
// recordUBRLen(d) bytes, or the whole record if shorter) and its total
// length, rejecting exactly the shapes decodeRecord rejects.
func decodeRecordUBR(prefix []byte, total int) (geom.Rect, error) {
	d, _, err := recordShape(prefix, total)
	if err != nil {
		return geom.Rect{}, err
	}
	if len(prefix) < recordUBRLen(d) {
		return geom.Rect{}, fmt.Errorf("pvindex: record prefix of %d bytes ends inside the UBR (d=%d)", len(prefix), d)
	}
	return getRect(prefix[6:], d), nil
}

// decodeRecord parses an encoded record. All instance positions share one
// backing array; each Pos is capped so an append cannot reach its neighbor.
func decodeRecord(buf []byte) (record, error) {
	d, n, err := recordShape(buf, len(buf))
	if err != nil {
		return record{}, err
	}
	rec := record{UBR: getRect(buf[6:], d), Region: getRect(buf[6+16*d:], d)}
	if n > 0 {
		rec.Instances = make([]uncertain.Instance, n)
		pos := make([]float64, n*d)
		off := 6 + 32*d
		for i := range rec.Instances {
			p := pos[i*d : (i+1)*d : (i+1)*d]
			getFloats(p, buf[off:])
			rec.Instances[i] = uncertain.Instance{
				Pos:  p,
				Prob: math.Float64frombits(binary.LittleEndian.Uint64(buf[off+8*d:])),
			}
			off += 8*d + 8
		}
	}
	return rec, nil
}
