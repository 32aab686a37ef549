package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"

	"pvoronoi"
)

// The insert routes' bodies, about 100 KB for a batch of 16 objects of 100
// instances, are read by a strict reader (strict) where they are what an
// encoder writes, and by encoding/json otherwise. Both paths feed one
// builder, insertFields.object, so a verdict is encoding/json's either way.

// insertFields is one insert object as decoded.
type insertFields struct {
	id        pvoronoi.ID
	lo, hi    []float64
	instances []instanceJSON
	sample    *sampleJSON
}

// fields returns the insert fields encoding/json decoded into r.
func (r *insertRequest) fields() insertFields {
	return insertFields{r.ID, r.Region.Lo, r.Region.Hi, r.Instances, r.Sample}
}

// insertBody is a decoded insert request: its own insert fields (/v1/insert)
// and its objects (/v1/insertbatch).
type insertBody struct {
	top     insertFields
	objects []insertFields
}

// bodyDecoder reads one body. Lists are cut from its arenas, capped, so a
// later list never writes into an earlier one. Decoders are pooled with
// their buffers: the objects built from a body copy what they keep.
type bodyDecoder struct {
	data   []byte
	i      int
	floats []float64
	insts  []instanceJSON
	objs   []insertFields
}

var decoders = sync.Pool{New: func() any { return new(bodyDecoder) }}

// decodeInsert reads an insert route's body and builds its objects: the
// request's own insert fields for fObject, its objects for fObjects.
func (s *server) decodeInsert(r *http.Request, reads field) (req *request, err error) {
	d := decoders.Get().(*bodyDecoder)
	defer d.release()
	var body insertBody
	d.data, err = readBody(d.data[:0], r.Body, r.ContentLength)
	if err == nil {
		body, err = d.decode()
	}
	if err != nil {
		return nil, fmt.Errorf("bad JSON body: %w", err)
	}
	req = &request{k: 1, insertRequest: insertRequest{ID: body.top.id}}
	req.objs, err = body.build(reads)
	return req, err
}

// release returns d to the pool, unless a large body left it large.
func (d *bodyDecoder) release() {
	if cap(d.data) <= 1<<20 && cap(d.floats) <= 1<<17 {
		*d = bodyDecoder{data: d.data[:0], floats: d.floats[:0], insts: d.insts[:0], objs: d.objs[:0]}
		decoders.Put(d)
	}
}

// bodyPrealloc caps what readBody allocates on a body's declared length
// before its bytes arrive; past it the buffer grows as they do.
const bodyPrealloc = 64 << 10

// readBody appends a whole body to buf. One over the bound is answered 413,
// as json.Decoder's would be, unless the bytes before the bound already hold
// a syntax error or a complete first value — then it is decoded from them.
func readBody(buf []byte, r io.Reader, size int64) ([]byte, error) {
	if want := int(min(size, bodyPrealloc)) + 1; cap(buf) < want {
		buf = make([]byte, 0, want)
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			var syn *json.SyntaxError
			if perr := json.NewDecoder(bytes.NewReader(buf)).Decode(new(json.RawMessage)); perr == nil || errors.As(perr, &syn) {
				return buf, nil
			}
		}
		if err != nil {
			return nil, err
		}
	}
}

// decodeInsertBody decodes the first JSON value of data as an insert request.
func decodeInsertBody(data []byte) (insertBody, error) { return (&bodyDecoder{data: data}).decode() }

// decode decodes the first JSON value of d.data as an insert request: by the
// strict reader, or by encoding/json where it gives up.
func (d *bodyDecoder) decode() (insertBody, error) {
	if body, ok := d.strict(); ok {
		return body, nil
	}
	var req request
	err := json.NewDecoder(bytes.NewReader(d.data)).Decode(&req)
	body := insertBody{top: req.fields(), objects: make([]insertFields, len(req.Objects))}
	for i := range req.Objects {
		body.objects[i] = req.Objects[i].fields()
	}
	return body, err
}

// build makes the objects reads asks for, validated as the reference's
// toObject validates them.
func (b *insertBody) build(reads field) ([]*pvoronoi.Object, error) {
	if reads&fObject != 0 {
		o, err := b.top.object()
		return []*pvoronoi.Object{o}, err
	}
	if len(b.objects) == 0 {
		return nil, errors.New("missing or empty objects")
	}
	objs := make([]*pvoronoi.Object, len(b.objects))
	for i := range b.objects {
		var err error
		if objs[i], err = b.objects[i].object(); err != nil {
			return nil, fmt.Errorf("objects[%d]: %w", i, err)
		}
	}
	return objs, nil
}

// maxSampleN caps an insert's sample.n: the server draws that many
// instances before the index sees the object, so the bound has to be here.
// The paper's pdfs have 500 samples.
const maxSampleN = 10000

// object validates one insert and builds the object it describes: its
// region's corners in one array, its instances' positions in another.
func (f *insertFields) object() (*pvoronoi.Object, error) {
	d := len(f.lo)
	if d == 0 || d != len(f.hi) {
		return nil, fmt.Errorf("region needs matching lo/hi")
	}
	for i := range f.lo {
		if f.lo[i] > f.hi[i] {
			return nil, fmt.Errorf("inverted region in dim %d", i)
		}
	}
	corners := append(append(make([]float64, 0, 2*d), f.lo...), f.hi...)
	region := pvoronoi.NewRect(corners[:d:d], corners[d:])

	o := &pvoronoi.Object{ID: f.id, Region: region}
	switch {
	case len(f.instances) > 0:
		// pos is sized by the coordinates the body sent, never by its
		// declared d: Validate refuses the object afterwards unless every
		// position has d of them.
		total := 0
		for _, in := range f.instances {
			total += len(in.Pos)
		}
		pos := make([]float64, 0, total)
		o.Instances = make([]pvoronoi.Instance, len(f.instances))
		for i, in := range f.instances {
			pos = append(pos, in.Pos...)
			o.Instances[i] = pvoronoi.Instance{Pos: pos[len(pos)-len(in.Pos) : len(pos) : len(pos)], Prob: in.Prob}
		}
		if err := o.Validate(); err != nil {
			return nil, err
		}
	case f.sample != nil:
		n := f.sample.N
		if n <= 0 {
			n = 100
		}
		if n > maxSampleN {
			return nil, fmt.Errorf("sample.n %d exceeds the limit of %d", n, maxSampleN)
		}
		if strings.EqualFold(f.sample.Kind, "gaussian") {
			o.Instances = pvoronoi.SampleGaussian(region, n, f.sample.Seed)
		} else {
			o.Instances = pvoronoi.SampleUniform(region, n, f.sample.Seed)
		}
	}
	return o, nil
}

// strict reads d.data as the insert schema, the only value in the body: the
// keys id, region, instances and objects, lo and hi, pos and prob, plain and
// lower-case, each at most once per object in any order, JSON whitespace
// between tokens, and numbers by JSON's grammar that strconv takes. It and
// the methods below, each reading one token or value at d.i, report false
// on anything else: another key, an escaped or repeated one, null, a value
// of another type, text after the value.
func (d *bodyDecoder) strict() (body insertBody, ok bool) {
	ok = d.object([]string{"id", "region", "instances", "objects"}, func(k int) (ok bool) {
		if k < 3 {
			return d.insertField(&body.top, k)
		}
		body.objects, ok = list(d, &d.objs, func(f *insertFields) bool {
			return d.object([]string{"id", "region", "instances"}, func(k int) bool { return d.insertField(f, k) })
		})
		return ok
	})
	d.space()
	return body, ok && d.i == len(d.data)
}

// insertField reads the value of an insert object's k-th key into f.
func (d *bodyDecoder) insertField(f *insertFields, k int) (ok bool) {
	switch k {
	case 0:
		id, err := strconv.ParseUint(string(d.number()), 10, 32)
		f.id = pvoronoi.ID(id)
		return err == nil
	case 1:
		return d.object([]string{"lo", "hi"}, func(k int) (ok bool) {
			if k == 0 {
				f.lo, ok = d.floatList()
			} else {
				f.hi, ok = d.floatList()
			}
			return ok
		})
	}
	f.instances, ok = list(d, &d.insts, func(in *instanceJSON) bool {
		return d.object([]string{"pos", "prob"}, func(k int) (ok bool) {
			if k == 0 {
				in.Pos, ok = d.floatList()
			} else {
				in.Prob, ok = d.float()
			}
			return ok
		})
	})
	return ok
}

// list reads an array whose elements elem reads into fresh slots of the
// arena, and returns them, capped. elem must not grow the same arena.
func list[T any](d *bodyDecoder, arena *[]T, elem func(*T) bool) ([]T, bool) {
	start := len(*arena)
	ok := d.seq('[', ']', func() bool {
		*arena = append(*arena, *new(T))
		return elem(&(*arena)[len(*arena)-1])
	})
	return (*arena)[start:len(*arena):len(*arena)], ok
}

// floatList reads an array of numbers into the float arena.
func (d *bodyDecoder) floatList() ([]float64, bool) {
	return list(d, &d.floats, func(v *float64) (ok bool) { *v, ok = d.float(); return ok })
}

// object reads an object whose keys are among keys, each at most once,
// calling member with a key's index at its value. A key holding an escape
// ends at or before the backslash's quote, so it names none of them.
func (d *bodyDecoder) object(keys []string, member func(k int) bool) bool {
	var seen uint
	return d.seq('{', '}', func() bool {
		if !d.next('"') {
			return false
		}
		key, _, closed := bytes.Cut(d.data[d.i:], []byte{'"'})
		k := slices.Index(keys, string(key))
		d.i = min(d.i+len(key)+1, len(d.data))
		if !closed || k < 0 || seen&(1<<k) != 0 || !d.next(':') {
			return false
		}
		seen |= 1 << k
		return member(k)
	})
}

// seq reads an object or an array, open … close, calling item at each of
// its members or elements.
func (d *bodyDecoder) seq(open, close byte, item func() bool) bool {
	ok := d.next(open)
	if !ok || d.next(close) {
		return ok
	}
	for ok = item(); ok && d.next(','); ok = item() {
	}
	return ok && d.next(close)
}

// float reads a number as a float64.
func (d *bodyDecoder) float() (float64, bool) {
	v, err := strconv.ParseFloat(string(d.number()), 64)
	return v, err == nil
}

// number returns the next number token by JSON's grammar, nil if there is
// none: strconv alone would also take 01, 1., .5 and +1.
func (d *bodyDecoder) number() []byte {
	d.space()
	start := d.i
	d.take('-')
	if !d.take('0') && d.digits() == 0 || d.take('.') && d.digits() == 0 ||
		(d.take('e') || d.take('E')) && (d.take('+') || d.take('-') || true) && d.digits() == 0 {
		return nil
	}
	return d.data[start:d.i]
}

// next consumes c if it is the next token.
func (d *bodyDecoder) next(c byte) bool {
	d.space()
	return d.take(c)
}

// whitespace has the bit of each JSON whitespace byte set.
const whitespace = 1<<' ' | 1<<'\t' | 1<<'\n' | 1<<'\r'

// space skips JSON whitespace.
func (d *bodyDecoder) space() {
	for d.i < len(d.data) && uint64(1)<<d.data[d.i]&whitespace != 0 {
		d.i++
	}
}

// take consumes the next byte if it is c.
func (d *bodyDecoder) take(c byte) bool {
	if d.i < len(d.data) && d.data[d.i] == c {
		d.i++
		return true
	}
	return false
}

// digits consumes a run of digits and returns its length.
func (d *bodyDecoder) digits() int {
	n := 0
	for b := d.data[d.i:]; n < len(b) && '0' <= b[n] && b[n] <= '9'; n++ {
	}
	d.i += n
	return n
}
