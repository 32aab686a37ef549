package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"pvoronoi"
)

// The insert routes' bodies — a 16-object batch with 100 instances each is
// about 100 KB — are decoded by hand in one pass over the body: numbers go
// straight into float arenas and each object gets one position array, with
// no reflection and no per-instance allocation. The decoder takes exactly
// the decisions encoding/json takes for the request struct (the reference
// decoder in reference_test.go and FuzzDecodeInsertBody hold it to them):
// keys match case-insensitively under json's folding, unknown keys of any
// type are skipped, null leaves a value as it was (and empties a list or the
// sample), a repeated key decodes into what the first one left, and only the
// first JSON value of the body is read.

// insertFields is one insert object as decoded: insertRequest's fields, as
// encoding/json would have filled them.
type insertFields struct {
	id        pvoronoi.ID
	lo, hi    []float64
	instances []instanceFields
	hasSample bool
	sample    sampleFields
}

type instanceFields struct {
	pos  []float64
	prob float64
}

type sampleFields struct {
	kind string
	n    int
	seed int64
}

// insertBody is a decoded insert request: its own insert fields (/v1/insert)
// and its objects (/v1/insertbatch).
type insertBody struct {
	top     insertFields
	objects []insertFields
}

// bodyDecoder walks one JSON body. Fresh lists are cut from its arenas,
// capped, so a later list never writes into an earlier one. The decoders,
// their body buffers and arenas, are pooled: the objects built from a body
// copy what they keep.
type bodyDecoder struct {
	data   []byte
	i      int
	depth  int // objects and arrays open around d.i
	floats []float64
	insts  []instanceFields
	objs   []insertFields
}

var decoders = sync.Pool{New: func() any { return new(bodyDecoder) }}

var (
	errSyntax = errors.New("invalid JSON")
	errType   = errors.New("value of the wrong JSON type")
)

// decodeInsert reads an insert route's body and builds its objects: the
// request's own insert fields for fObject, its objects for fObjects.
func (s *server) decodeInsert(r *http.Request, reads field) (*request, error) {
	d := decoders.Get().(*bodyDecoder)
	defer d.release()
	data, err := readBody(d.data[:0], r.Body, r.ContentLength)
	d.data = data
	if err != nil {
		return nil, fmt.Errorf("bad JSON body: %w", err)
	}
	body, err := d.decode()
	if err != nil {
		return nil, fmt.Errorf("bad JSON body: %w", err)
	}
	req := &request{k: 1}
	req.ID = body.top.id
	req.objs, err = body.build(reads)
	return req, err
}

// release returns d to the pool, unless a large body left it large.
func (d *bodyDecoder) release() {
	if cap(d.data) > 1<<20 || cap(d.floats) > 1<<17 {
		return
	}
	d.data, d.i, d.depth, d.floats, d.insts, d.objs = d.data[:0], 0, 0, d.floats[:0], d.insts[:0], d.objs[:0]
	decoders.Put(d)
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
func decodeInsertBody(data []byte) (*insertBody, error) {
	return (&bodyDecoder{data: data}).decode()
}

// decode decodes the first JSON value of d.data as an insert request.
func (d *bodyDecoder) decode() (*insertBody, error) {
	var body insertBody
	d.ws()
	if d.i == len(d.data) {
		return nil, io.EOF
	}
	if d.null() {
		return &body, nil
	}
	err := d.object(func(key []byte) error {
		switch {
		case is(key, "objects"):
			return decodeList(d, &body.objects, &d.objs, func(f *insertFields) error {
				return d.object(func(key []byte) error { return d.insertField(f, key) })
			})
		case is(key, "point"):
			return d.typeCheck(new(pvoronoi.Point))
		case is(key, "points"):
			return d.typeCheck(new([]pvoronoi.Point))
		case is(key, "groups"):
			return d.typeCheck(new([][]pvoronoi.Point))
		case is(key, "k"):
			return d.typeCheck(new(*int))
		case is(key, "agg"):
			return d.typeCheck(new(string))
		case is(key, "ids"):
			return d.typeCheck(new([]pvoronoi.ID))
		}
		return d.insertField(&body.top, key)
	})
	if err != nil {
		return nil, err
	}
	return &body, nil
}

// insertField decodes the value of key into f, skipping an unknown key's.
func (d *bodyDecoder) insertField(f *insertFields, key []byte) error {
	switch {
	case is(key, "id"):
		if d.null() {
			return nil
		}
		tok, err := d.number()
		if err != nil {
			return err
		}
		n, err := strconv.ParseUint(string(tok), 10, 64)
		if err != nil || n > math.MaxUint32 {
			return fmt.Errorf("%w: id %s is no uint32", errType, tok)
		}
		f.id = pvoronoi.ID(n)
	case is(key, "region"):
		if d.null() {
			return nil
		}
		return d.object(func(key []byte) error {
			switch {
			case is(key, "lo"):
				return decodeList(d, &f.lo, &d.floats, d.float)
			case is(key, "hi"):
				return decodeList(d, &f.hi, &d.floats, d.float)
			}
			return d.skip()
		})
	case is(key, "instances"):
		return decodeList(d, &f.instances, &d.insts, func(in *instanceFields) error {
			return d.object(func(key []byte) error {
				switch {
				case is(key, "pos"):
					return decodeList(d, &in.pos, &d.floats, d.float)
				case is(key, "prob"):
					if d.null() {
						return nil
					}
					return d.float(&in.prob)
				}
				return d.skip()
			})
		})
	case is(key, "sample"):
		if d.null() {
			f.hasSample, f.sample = false, sampleFields{}
			return nil
		}
		if !f.hasSample {
			f.hasSample, f.sample = true, sampleFields{}
		}
		return d.object(func(key []byte) error {
			if d.null() {
				return nil
			}
			switch {
			case is(key, "kind"):
				return d.str(&f.sample.kind)
			case is(key, "n"):
				v, err := d.int()
				f.sample.n = int(v)
				return err
			case is(key, "seed"):
				v, err := d.int()
				f.sample.seed = v
				return err
			}
			return d.skip()
		})
	default:
		return d.skip()
	}
	return nil
}

// typeCheck decodes a field the insert routes do not read with
// encoding/json into dst, its request type, only for the verdict.
func (d *bodyDecoder) typeCheck(dst any) error {
	start := d.i
	if err := d.skip(); err != nil {
		return err
	}
	return json.Unmarshal(d.data[start:d.i], dst)
}

// decodeList decodes an array into *list as encoding/json decodes into a
// slice: null empties it; element i decodes (elem) into what the slice holds
// there — within its capacity by reslicing, exposing what an earlier value
// left, beyond it by appending a zero — null elements leaving it as it is;
// the slice ends at the array's length, an empty one without its backing.
// A list that had no capacity is cut from the arena, capped.
func decodeList[T any](d *bodyDecoder, list, arena *[]T, elem func(*T) error) error {
	if d.null() {
		*list = nil
		return nil
	}
	s, fresh := *list, cap(*list) == 0
	start := len(*arena)
	var zero T
	err := d.array(func(i int) error {
		switch {
		case fresh:
			*arena = append(*arena, zero)
			s = (*arena)[start:]
		case i < cap(s):
			s = s[:max(len(s), i+1)]
		default:
			s = append(s, zero)
		}
		if d.null() {
			return nil
		}
		return elem(&s[i])
	}, func(n int) { s = s[:n] })
	switch {
	case len(s) == 0:
		*list = []T{}
	case fresh:
		*list = s[:len(s):len(s)]
	default:
		*list = s
	}
	return err
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
		o, err := b.objects[i].object()
		if err != nil {
			return nil, fmt.Errorf("objects[%d]: %w", i, err)
		}
		objs[i] = o
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
		total := 0
		for _, in := range f.instances {
			total += len(in.pos)
		}
		pos := make([]float64, 0, total)
		o.Instances = make([]pvoronoi.Instance, len(f.instances))
		for i, in := range f.instances {
			start := len(pos)
			pos = append(pos, in.pos...)
			o.Instances[i] = pvoronoi.Instance{Pos: pos[start:len(pos):len(pos)], Prob: in.prob}
		}
		if err := o.Validate(); err != nil {
			return nil, err
		}
	case f.hasSample:
		n := f.sample.n
		if n <= 0 {
			n = 100
		}
		if n > maxSampleN {
			return nil, fmt.Errorf("sample.n %d exceeds the limit of %d", n, maxSampleN)
		}
		if strings.EqualFold(f.sample.kind, "gaussian") {
			o.Instances = pvoronoi.SampleGaussian(region, n, f.sample.seed)
		} else {
			o.Instances = pvoronoi.SampleUniform(region, n, f.sample.seed)
		}
	}
	return o, nil
}

// is reports whether key names the field name (lower-case ASCII) as
// encoding/json matches keys: equal under Unicode simple folding, so "ID",
// "Id" and "ſample" (long s) match too.
func is(key []byte, name string) bool {
	for i, c := range key {
		if c >= utf8.RuneSelf {
			return bytes.EqualFold(key, []byte(name))
		}
		if i >= len(name) || c != name[i] && !('A' <= c && c <= 'Z' && c+('a'-'A') == name[i]) {
			return false
		}
	}
	return len(key) == len(name)
}

// The scanner. Every method starts at a value (whitespace skipped) and
// leaves d.i after it.

func (d *bodyDecoder) ws() {
	for d.i < len(d.data) {
		switch d.data[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// peek returns the next non-space byte, 0 at the end.
func (d *bodyDecoder) peek() byte {
	d.ws()
	if d.i < len(d.data) {
		return d.data[d.i]
	}
	return 0
}

// null consumes a null literal if one is next.
func (d *bodyDecoder) null() bool {
	if d.peek() == 'n' && bytes.HasPrefix(d.data[d.i:], []byte("null")) {
		d.i += 4
		return true
	}
	return false
}

// maxDepth is encoding/json's bound on nested objects and arrays; it keeps a
// body of 32 MiB of brackets from recursing the decoder off its stack.
const maxDepth = 10000

// open enters an object or array, refusing one nested past maxDepth; the
// caller defers d.depth--.
func (d *bodyDecoder) open() error {
	d.i++
	if d.depth++; d.depth > maxDepth {
		return errSyntax
	}
	return nil
}

// object decodes an object, calling member with each key (unquoted) at its
// value, which member must consume. A value of another type is errType,
// after it has been checked for syntax.
func (d *bodyDecoder) object(member func(key []byte) error) error {
	if d.peek() != '{' {
		return d.mismatch()
	}
	defer func() { d.depth-- }()
	if err := d.open(); err != nil {
		return err
	}
	if d.peek() == '}' {
		d.i++
		return nil
	}
	for {
		if d.peek() != '"' {
			return errSyntax
		}
		key, err := d.key()
		if err != nil {
			return err
		}
		if d.peek() != ':' {
			return errSyntax
		}
		d.i++
		if d.peek() == 0 {
			return errSyntax
		}
		if err := member(key); err != nil {
			return err
		}
		switch d.peek() {
		case ',':
			d.i++
		case '}':
			d.i++
			return nil
		default:
			return errSyntax
		}
	}
}

// array decodes an array, calling elem with each index at its element, then
// end with the element count.
func (d *bodyDecoder) array(elem func(i int) error, end func(n int)) error {
	if d.peek() != '[' {
		return d.mismatch()
	}
	defer func() { d.depth-- }()
	if err := d.open(); err != nil {
		return err
	}
	n := 0
	if d.peek() == ']' {
		d.i++
		end(0)
		return nil
	}
	for {
		if d.peek() == 0 {
			return errSyntax
		}
		if err := elem(n); err != nil {
			return err
		}
		n++
		switch d.peek() {
		case ',':
			d.i++
		case ']':
			d.i++
			end(n)
			return nil
		default:
			return errSyntax
		}
	}
}

// mismatch skips a value the decoder did not expect: a syntax error if it
// is not one, errType if it is.
func (d *bodyDecoder) mismatch() error {
	if err := d.skip(); err != nil {
		return err
	}
	return errType
}

// skip consumes any one value, checking its syntax.
func (d *bodyDecoder) skip() error {
	switch c := d.peek(); {
	case c == '{':
		return d.object(func([]byte) error { return d.skip() })
	case c == '[':
		return d.array(func(int) error { return d.skip() }, func(int) {})
	case c == '"':
		_, _, err := d.stringToken()
		return err
	case c == '-' || '0' <= c && c <= '9':
		_, err := d.numberToken()
		return err
	}
	for _, lit := range []string{"true", "false", "null"} {
		if bytes.HasPrefix(d.data[d.i:], []byte(lit)) {
			d.i += len(lit)
			return nil
		}
	}
	return errSyntax
}

// number returns the next number token; any other value is errType.
func (d *bodyDecoder) number() ([]byte, error) {
	if c := d.peek(); c != '-' && (c < '0' || c > '9') {
		return nil, d.mismatch()
	}
	return d.numberToken()
}

func (d *bodyDecoder) float(dst *float64) error {
	tok, err := d.number()
	if err != nil {
		return err
	}
	v, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return fmt.Errorf("%w: %s is no float64", errType, tok)
	}
	*dst = v
	return nil
}

func (d *bodyDecoder) int() (int64, error) {
	tok, err := d.number()
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseInt(string(tok), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%w: %s is no int64", errType, tok)
	}
	return v, nil
}

// numberToken scans a number by JSON's grammar.
func (d *bodyDecoder) numberToken() ([]byte, error) {
	b, start := d.data, d.i
	digits := func() int {
		n := 0
		for d.i < len(b) && '0' <= b[d.i] && b[d.i] <= '9' {
			d.i, n = d.i+1, n+1
		}
		return n
	}
	if d.i < len(b) && b[d.i] == '-' {
		d.i++
	}
	switch {
	case d.i < len(b) && b[d.i] == '0':
		d.i++
	case digits() == 0:
		return nil, errSyntax
	}
	if d.i < len(b) && b[d.i] == '.' {
		d.i++
		if digits() == 0 {
			return nil, errSyntax
		}
	}
	if d.i < len(b) && (b[d.i] == 'e' || b[d.i] == 'E') {
		d.i++
		if d.i < len(b) && (b[d.i] == '+' || b[d.i] == '-') {
			d.i++
		}
		if digits() == 0 {
			return nil, errSyntax
		}
	}
	return b[start:d.i], nil
}

// stringToken scans a string, returning it with its quotes and whether it
// needs unquoting beyond dropping them (an escape, or a byte past ASCII).
func (d *bodyDecoder) stringToken() (tok []byte, plain bool, err error) {
	b, start := d.data, d.i
	plain = true
	for d.i++; d.i < len(b); d.i++ {
		switch c := b[d.i]; {
		case c == '"':
			d.i++
			return b[start:d.i], plain, nil
		case c < 0x20:
			return nil, false, errSyntax
		case c >= utf8.RuneSelf:
			plain = false
		case c == '\\':
			plain = false
			if d.i++; d.i == len(b) {
				return nil, false, errSyntax
			}
			switch b[d.i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if d.i+4 >= len(b) {
					return nil, false, errSyntax
				}
				for _, h := range b[d.i+1 : d.i+5] {
					if !('0' <= h && h <= '9' || 'a' <= h && h <= 'f' || 'A' <= h && h <= 'F') {
						return nil, false, errSyntax
					}
				}
				d.i += 4
			default:
				return nil, false, errSyntax
			}
		}
	}
	return nil, false, errSyntax
}

// key scans an object key and returns it unquoted.
func (d *bodyDecoder) key() ([]byte, error) {
	tok, plain, err := d.stringToken()
	if err != nil || plain {
		return tok[min(1, len(tok)):max(len(tok)-1, 0)], err
	}
	var s string
	if err := json.Unmarshal(tok, &s); err != nil {
		return nil, err
	}
	return []byte(s), nil
}

// str decodes a string value into dst; any other value is errType.
func (d *bodyDecoder) str(dst *string) error {
	if d.peek() != '"' {
		return d.mismatch()
	}
	tok, plain, err := d.stringToken()
	switch {
	case err != nil:
		return err
	case plain:
		*dst = string(tok[1 : len(tok)-1])
		return nil
	}
	return json.Unmarshal(tok, dst)
}
