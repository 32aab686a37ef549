package uncertain

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"pvoronoi/internal/geom"
)

// encodedLen is AppendObject's output size for a d-dimensional object with n
// instances, in 64 bits so that no header can overflow it.
func encodedLen(d, n int) uint64 { return 16*uint64(d) + uint64(n)*(8*uint64(d)+8) }

// AppendObject appends o in the fixed-width object codec — the region's d
// lows then d highs, then each instance's d coordinates and probability, all
// little-endian float64 — to dst. The ID, dimension and instance count belong
// to the caller's framing (a dataset stream, a WAL insert). It fails only on a ragged object — a Hi corner or an instance
// position whose length is not len(o.Region.Lo) — which no fixed-width layout
// can hold.
func AppendObject(dst []byte, o *Object) ([]byte, error) {
	d := o.Dim()
	if len(o.Region.Hi) != d {
		return dst, fmt.Errorf("uncertain: object %d: region corners have %d and %d coordinates", o.ID, d, len(o.Region.Hi))
	}
	dst = slices.Grow(dst, int(encodedLen(d, len(o.Instances))))
	put := func(fs ...float64) {
		for _, f := range fs {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
		}
	}
	put(o.Region.Lo...)
	put(o.Region.Hi...)
	for _, in := range o.Instances {
		if len(in.Pos) != d {
			return dst, fmt.Errorf("uncertain: object %d: instance dim %d != region dim %d", o.ID, len(in.Pos), d)
		}
		put(in.Pos...)
		put(in.Prob)
	}
	return dst, nil
}

// DecodeObject reads the encoding AppendObject writes for a d-dimensional
// object with n instances from the front of buf into o's Region and
// Instances (nil when n is 0), and returns the bytes after it. The length is
// checked against buf before anything is allocated. All positions share one
// backing array; each Pos is capped so an append cannot reach its neighbour.
func DecodeObject(o *Object, buf []byte, d, n int) ([]byte, error) {
	if d < 0 || n < 0 || encodedLen(d, n) > uint64(len(buf)) {
		return buf, fmt.Errorf("uncertain: object %d (d=%d, %d instances) does not fit in the %d bytes left", o.ID, d, n, len(buf))
	}
	next := func() float64 {
		f := math.Float64frombits(binary.LittleEndian.Uint64(buf))
		buf = buf[8:]
		return f
	}
	c := make([]float64, 2*d)
	for i := range c {
		c[i] = next()
	}
	o.Region = geom.Rect{Lo: c[:d:d], Hi: c[d:]}
	o.Instances = nil
	if n > 0 {
		o.Instances = make([]Instance, n)
		pos := make([]float64, n*d)
		for i := range o.Instances {
			p := pos[i*d : (i+1)*d : (i+1)*d]
			for j := range p {
				p[j] = next()
			}
			o.Instances[i] = Instance{Pos: p, Prob: next()}
		}
	}
	return buf, nil
}
