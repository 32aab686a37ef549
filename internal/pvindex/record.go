package pvindex

import (
	"encoding/binary"
	"fmt"

	"pvoronoi/internal/exthash"
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

// appendRecord appends the serialization of r to dst. Layout:
//
//	dim uint16 | nInstances uint32 | UBR lo/hi (2d float64) |
//	region lo/hi (2d float64) | instances (d+1 float64 each)
//
// Everything after the UBR is uncertain's fixed-width object codec, and the
// UBR is laid out like an object without instances. The first
// recordUBRLen(d) bytes are self-sufficient: together with the value's total
// length they validate the whole record's shape and yield the UBR
// (decodeRecordUBR), so the write path never reads past them.
func appendRecord(dst []byte, r record) ([]byte, error) {
	d, n := r.UBR.Dim(), len(r.Instances)
	buf := binary.LittleEndian.AppendUint16(dst, uint16(d))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
	buf, err := uncertain.AppendObject(buf, &uncertain.Object{Region: r.UBR})
	if err == nil {
		buf, err = uncertain.AppendObject(buf, &uncertain.Object{Region: r.Region, Instances: r.Instances})
	}
	return buf, err
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

// decodeRecordUBR returns the UBR of a record from its prefix (at least
// recordUBRLen(d) bytes, or the whole record if shorter) and its total
// length, rejecting exactly the shapes a whole-record decode rejects
// (decodeRecord, kept beside the fuzz target that holds the two together).
func decodeRecordUBR(prefix []byte, total int) (geom.Rect, error) {
	d, _, err := recordShape(prefix, total)
	if err != nil {
		return geom.Rect{}, err
	}
	if len(prefix) < recordUBRLen(d) {
		return geom.Rect{}, fmt.Errorf("pvindex: record prefix of %d bytes ends inside the UBR (d=%d)", len(prefix), d)
	}
	var ubr uncertain.Object
	_, err = uncertain.DecodeObject(&ubr, prefix[6:], d, 0)
	return ubr.Region, err
}

// storedUBR reads the UBR of id's record in t from the record's header
// alone: one bucket and one page view, never the pdf, however many pages it
// spans. Every UBR read — the writer's, the readers', the load check's —
// goes through it.
func storedUBR(t *exthash.Table, id uint32, d int) (geom.Rect, bool) {
	prefix, total, ok, err := t.GetPrefix(id, recordUBRLen(d))
	if err != nil || !ok {
		return geom.Rect{}, false
	}
	ubr, err := decodeRecordUBR(prefix, total)
	return ubr, err == nil
}
