package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"pvoronoi"
	"pvoronoi/internal/race"
)

// realInsertBodies are insert and batch bodies shaped like the harness's: a
// d-dimensional region and its instances as pos/prob pairs, one sampled.
func realInsertBodies() [][]byte {
	rng := rand.New(rand.NewSource(11))
	object := func(id, d, n int) map[string]any {
		lo, hi := make([]float64, d), make([]float64, d)
		for k := range d {
			lo[k] = rng.Float64() * 9000
			hi[k] = lo[k] + 1 + rng.Float64()*60
		}
		var ins []map[string]any
		for _, in := range pvoronoi.SampleUniform(pvoronoi.NewRect(lo, hi), n, int64(id)) {
			ins = append(ins, map[string]any{"pos": in.Pos, "prob": in.Prob})
		}
		return map[string]any{"id": id, "region": map[string]any{"lo": lo, "hi": hi}, "instances": ins}
	}
	marshal := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			panic(err)
		}
		return b
	}
	var bodies [][]byte
	for d := 1; d <= 3; d++ {
		bodies = append(bodies, marshal(object(100+d, d, 4)))
		objs := []any{object(200+d, d, 3), object(300+d, d, 5)}
		bodies = append(bodies, marshal(map[string]any{"objects": objs}))
	}
	return append(bodies, marshal(map[string]any{"objects": []any{object(7, 2, 100), object(8, 2, 100)}}))
}

// edgeInsertBodies hold what encoding/json decides by its own rules: folded
// and escaped keys, repeated keys that decode into what came before, nulls,
// samples, values of the wrong type, and text after the first value.
var edgeInsertBodies = []string{
	`{"ID":5,"Region":{"LO":[1,2],"Hi":[3,4]},"sample":{"n":3}}`,
	`{"id":5,"region":{"lo":[1,2],"hi":[3,4]},"ſample":{"Kind":"GAUSSIAN","n":4,"seed":9}}`,
	`{"id":5,"region":{"lo":[1,2],"hi":[3,4]},"instances":[{"pos":[1.5,2.5],"prob":1}]} trailing`,
	`{"id":5,"region":{"lo":[1,2,9],"hi":[3,4,9]},"region":{"lo":[0]},"instances":[{"pos":[1,3],"prob":1}]}`,
	`{"id":5,"region":{"lo":[1,2],"hi":[3,4]},"instances":[{"pos":[1,3],"prob":0.5},{"pos":[2,3],"prob":0.5}],"instances":[{"prob":1}]}`,
	`{"id":5,"region":{"lo":[1,2],"hi":[3,4]},"instances":[{"pos":[1,3,7],"prob":1}],"instances":[{"pos":[null,null]}]}`,
	`{"id":5,"region":{"lo":[1,2],"hi":[3,4]},"instances":[{"pos":[1,3],"prob":1}],"instances":null,"sample":{"n":2}}`,
	`{"id":5,"region":{"lo":[1,2],"hi":[3,4]},"sample":{"n":2},"sample":null}`,
	`{"id":5,"region":{"lo":[1,2],"hi":[3,4]},"sample":{"n":2,"seed":4},"sample":{"kind":"gaussian"}}`,
	`{"id":null,"region":null,"instances":[null]}`,
	`{"id":1.0,"region":{"lo":[1,2],"hi":[3,4]}}`,
	`{"id":-1,"region":{"lo":[1,2],"hi":[3,4]}}`,
	`{"id":4294967296,"region":{"lo":[1,2],"hi":[3,4]}}`,
	`{"id":"5","region":{"lo":[1,2],"hi":[3,4]}}`,
	`{"id":5,"region":{"lo":[1,"2"],"hi":[3,4]}}`,
	`{"id":5,"region":{"lo":[1e400,2],"hi":[3,4]}}`,
	`{"id":5,"region":{"lo":[1,2],"hi":[3,4]},"point":"x"}`,
	`{"id":5,"region":{"lo":[1,2],"hi":[3,4]},"k":1.5,"agg":7,"ids":[-1]}`,
	`{"id":5,"region":{"lo":[1,2],"hi":[3,4]},"unknown":{"a":[1,{"b":null}]},"Objects":[{"id":6}]}`,
	`{"objects":[{"id":6,"region":{"lo":[1],"hi":[2]},"sample":{}}],"objects":[null,{"id":7,"region":{"lo":[1],"hi":[2]}}]}`,
	`{"objects":[{"id":6,"region":{"lo":[1],"hi":[2]}}],"objects":[]}`,
	`{"objects":{},"id":1}`,
	`{"objects":[{"id":6,"region":{"lo":[1],"hi":[2]},"sample":{"n":10001}}]}`,
	`{"id":5,"region":{"lo":[2],"hi":[1]}}`,
	`{"id":5,"region":{"lo":[1,2],"hi":[3,4]},"instances":[{"pos":[1,3],"prob":1}],"instances":[{"pos":[9,9]}]}`,
	`{"id":5,"region":{"lo":[1,2],"hi":[3,4]},"sample":{"kind":"gaussian","n":3}}`,
	`{"id":5,"region":{"lo":[-0,2],"hi":[0,4]},"sample":{"n":-3}}`,
	`{"K":1,"id":5,"region":{"lo":[1],"hi":[2]}}`,
	`{"id":5,"region":{"lo":[01],"hi":[2]}}`,
	`{"id":5,"region":{"lo":[1.],"hi":[2]}}`,
	`{"id":5 "region":{}}`,
	`{"id":5,}`,
	`{"id":"\x01"}`,
	`{"id":"\q"}`,
	`null`, `null garbage`, `nul`, `[]`, `"x"`, `123`, `true`, ``, `   `, `{`, `{"id"`, `{"id":`,
}

// TestDecodeInsertBodyDepth: nesting is refused past encoding/json's bound
// of 10 000 open objects and arrays, the top-level object included, and a
// 32 MiB body of brackets is an error, not a stack overflow.
func TestDecodeInsertBodyDepth(t *testing.T) {
	for _, depth := range []int{9999, 10000} {
		body := `{"x":` + strings.Repeat("[", depth) + strings.Repeat("]", depth) + `,"id":1,"region":{"lo":[1],"hi":[2]}}`
		compareInsertDecoders(t, []byte(body))
	}
	if _, err := decodeInsertBody([]byte(strings.Repeat("[", maxBodyBytes))); err == nil {
		t.Fatal("32 MiB of brackets decoded")
	}
}

// FuzzDecodeInsertBody holds the insert routes' decoder to the reference —
// encoding/json into the request struct, then toObject — on real bodies,
// the edge cases above and whatever the fuzzer makes of them: the same
// verdict for /v1/insert and /v1/insertbatch, and on acceptance the same ID
// and the same object bits.
func FuzzDecodeInsertBody(f *testing.F) {
	for _, b := range realInsertBodies() {
		f.Add(b)
	}
	for _, b := range edgeInsertBodies {
		f.Add([]byte(b))
	}
	f.Fuzz(func(t *testing.T, data []byte) { compareInsertDecoders(t, data) })
}

// TestDecodeInsertBodyMutations runs the comparison on mutated real bodies:
// bytes flipped, dropped, duplicated and JSON tokens spliced in.
func TestDecodeInsertBodyMutations(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	tokens := []string{`null`, `[`, `]`, `{`, `}`, `,`, `"`, `:`, `-`, `.5`, `e9`, `"ID":3,`, `"lo":[1],`, `"pos":null,`, `"prob":"1",`, `"objects":[],`, `\u0000`}
	rounds := 20000
	if testing.Short() || race.Enabled {
		rounds = 2000
	}
	bodies := realInsertBodies()
	for _, b := range edgeInsertBodies {
		bodies = append(bodies, []byte(b))
	}
	for range rounds {
		b := bytes.Clone(bodies[rng.Intn(len(bodies))])
		for range 1 + rng.Intn(3) {
			if len(b) == 0 {
				break
			}
			at := rng.Intn(len(b))
			switch rng.Intn(4) {
			case 0:
				b[at] ^= byte(1 << rng.Intn(8))
			case 1:
				b = append(b[:at], b[at+1:]...)
			case 2:
				end := min(len(b), at+1+rng.Intn(40))
				b = append(b[:end:end], b[at:]...)
			case 3:
				b = append(b[:at:at], append([]byte(tokens[rng.Intn(len(tokens))]), b[at:]...)...)
			}
		}
		compareInsertDecoders(t, b)
	}
}

func compareInsertDecoders(t *testing.T, data []byte) {
	t.Helper()
	for _, reads := range []field{fObject, fObjects} {
		want, werr := referenceDecodeInsert(data, reads)
		var got *request
		body, gerr := decodeInsertBody(data)
		if gerr == nil {
			got = &request{}
			got.ID = body.top.id
			got.objs, gerr = body.build(reads)
		}
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("reads %d, body %q: reference error %v, decoder error %v", reads, data, werr, gerr)
		}
		if werr != nil {
			continue
		}
		if reads == fObject && got.ID != want.ID {
			t.Fatalf("body %q: id %d, reference %d", data, got.ID, want.ID)
		}
		if len(got.objs) != len(want.objs) {
			t.Fatalf("body %q: %d objects, reference %d", data, len(got.objs), len(want.objs))
		}
		for i, o := range got.objs {
			if err := sameObject(o, want.objs[i]); err != nil {
				t.Fatalf("reads %d, body %q: object %d: %v", reads, data, i, err)
			}
		}
	}
}

// sameObject compares two objects bit for bit.
func sameObject(a, b *pvoronoi.Object) error {
	bits := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	switch {
	case a.ID != b.ID:
		return fmt.Errorf("id %d, reference %d", a.ID, b.ID)
	case !bits(a.Region.Lo, b.Region.Lo) || !bits(a.Region.Hi, b.Region.Hi):
		return fmt.Errorf("region %v, reference %v", a.Region, b.Region)
	case len(a.Instances) != len(b.Instances):
		return fmt.Errorf("%d instances, reference %d", len(a.Instances), len(b.Instances))
	}
	for i, in := range a.Instances {
		if !bits(in.Pos, b.Instances[i].Pos) || math.Float64bits(in.Prob) != math.Float64bits(b.Instances[i].Prob) {
			return fmt.Errorf("instance %d is %v, reference %v", i, in, b.Instances[i])
		}
	}
	return nil
}

// TestDecodeInsertOneArrayPerObject: a decoded object's instance positions
// share one array, each capped, and a 16-object batch of 100 instances
// decodes in a bounded number of allocations.
func TestDecodeInsertOneArrayPerObject(t *testing.T) {
	bodies := realInsertBodies()
	batch := bodies[len(bodies)-1]
	body, err := decodeInsertBody(batch)
	if err != nil {
		t.Fatal(err)
	}
	objs, err := body.build(fObjects)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range objs {
		for i, in := range o.Instances {
			if cap(in.Pos) != len(in.Pos) || i > 0 && !adjacent(o.Instances[i-1].Pos, in.Pos) {
				t.Fatalf("object %d: instance %d position is not the next capped slot of one array", o.ID, i)
			}
		}
	}
	if race.Enabled {
		return
	}
	allocs := testing.AllocsPerRun(20, func() {
		body, _ := decodeInsertBody(batch)
		_, _ = body.build(fObjects)
	})
	// Two objects: the arenas' growth, and per object the Object, its
	// corners, its instances and its positions.
	if allocs > 60 {
		t.Fatalf("decoding a 2-object batch of 100 instances allocates %.0f times, budget 60", allocs)
	}
}

// adjacent reports whether b starts right after a in one backing array.
func adjacent(a, b []float64) bool {
	return len(a) > 0 && len(b) > 0 && unsafe.Add(unsafe.Pointer(&a[len(a)-1]), 8) == unsafe.Pointer(&b[0])
}

// TestInsertBodyOverBound: a body past the 32 MiB bound is 413 while its
// prefix is well-formed JSON, and 400 once the prefix holds a syntax error.
func TestInsertBodyOverBound(t *testing.T) {
	s := &server{domain: pvoronoi.NewRect(pvoronoi.Point{0, 0}, pvoronoi.Point{10, 10}), metrics: newMetrics()}
	big := `{"id":1,"pad":"` + strings.Repeat("x", maxBodyBytes) + `"}`
	for body, want := range map[string]int{
		big:                        http.StatusRequestEntityTooLarge,
		`{"id":1,,` + big[8:]:      http.StatusBadRequest,
		`{"id":1}` + big[8:]:       http.StatusBadRequest, // a complete first value: decoded, then refused by validation
		`{"ids":[1,2,"` + big[15:]: http.StatusRequestEntityTooLarge,
	} {
		rec := httptest.NewRecorder()
		s.routes().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/insert", strings.NewReader(body)))
		if rec.Code != want {
			t.Errorf("body %.20q…: status %d, want %d", body, rec.Code, want)
		}
	}
}

// TestDeclaredLengthNotPreallocated: a request that declares a 32 MiB body
// but sends a few bytes makes the server allocate about what it sent, not
// what it declared (the buffer grows as bytes arrive).
func TestDeclaredLengthNotPreallocated(t *testing.T) {
	buf, err := readBody(nil, strings.NewReader(`{"id":1}`), maxBodyBytes)
	if err != nil || cap(buf) > bodyPrealloc+1 {
		t.Fatalf("readBody of 8 bytes declared as %d: cap %d, err %v", maxBodyBytes, cap(buf), err)
	}
	s := &server{domain: pvoronoi.NewRect(pvoronoi.Point{0, 0}, pvoronoi.Point{10, 10}), metrics: newMetrics()}
	h := s.routes()
	const reqs = 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for range reqs {
		r := httptest.NewRequest(http.MethodPost, "/v1/insert", strings.NewReader(`{"id":1}`))
		r.ContentLength = maxBodyBytes
		h.ServeHTTP(httptest.NewRecorder(), r)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / reqs; per > 1<<20 {
		t.Fatalf("%d B allocated per request declaring %d B and sending 8", per, maxBodyBytes)
	}
}
