package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pvoronoi"
)

// wireCase is one request of the wire corpus: method, path (with its query
// string) and body. A body with pad > 0 is sent as head + pad spaces + "]}"
// and no length, so only the body bound can stop it.
type wireCase struct {
	method, path, body string
	pad                int
}

// wireCorpus is about 200 requests over all fifteen routes, in an order
// whose writes interleave with the queries that see them: POST and GET
// forms, the validation failures (wrong dimension, non-finite GET point,
// out-of-domain point, bad k and agg, empty groups and batches), duplicate
// insert, unknown delete, checkpoint in memory mode, wrong methods and an
// oversized body. The index it runs on has the domain [0, 1000]².
func wireCorpus() []wireCase {
	var c []wireCase
	add := func(method, path, body string) { c = append(c, wireCase{method: method, path: path, body: body}) }
	post := func(path, body string) { add(http.MethodPost, path, body) }
	get := func(path string) { add(http.MethodGet, path, "") }

	rng := rand.New(rand.NewSource(30))
	coord := func() string { return fmt.Sprintf("%.3f", rng.Float64()*1000) }
	for i := 0; i < 10; i++ {
		x, y, x2, y2 := coord(), coord(), coord(), coord()
		pt, pt2 := "["+x+","+y+"]", "["+x2+","+y2+"]"
		qs := "?point=" + x + "," + y
		post("/v1/query", `{"point":`+pt+`}`)
		get("/v1/query" + qs)
		post("/v1/possiblenn", `{"point":`+pt+`}`)
		get("/v1/possiblenn" + qs)
		post("/v1/possibleknn", `{"point":`+pt+`,"k":8}`)
		get("/v1/possibleknn" + qs)
		post("/v1/possiblernn", `{"point":`+pt+`}`)
		get("/v1/possiblernn" + qs)
		post("/v1/groupnn", `{"points":[`+pt+`,`+pt2+`],"agg":"sum"}`)
		switch i % 5 {
		case 0:
			post("/v1/query", `{"point":`+pt+`,"eps":0.01}`)
		case 1:
			post("/v1/possibleknn", `{"point":`+pt2+`}`)
		case 2:
			post("/v1/groupnn", `{"points":[`+pt+`,`+pt2+`],"agg":"MAX"}`)
		case 3:
			post("/v1/groupnn", `{"points":[`+pt2+`]}`)
		case 4:
			post("/v1/possibleknn", `{"point":`+pt+`,"k":3}`)
		}
	}

	// Worker-pool batches.
	post("/v1/possibleknnbatch", `{"points":[[200,700],[500,500],[800,100]],"k":2}`)
	post("/v1/possibleknnbatch", `{"points":[[10,990],[640.5,12.25]]}`)
	post("/v1/possibleknnbatch", `{"points":[[333,333]],"k":8}`)
	post("/v1/groupnnbatch", `{"groups":[[[100,100],[300,200]],[[700,700]]],"agg":"sum"}`)
	post("/v1/groupnnbatch", `{"groups":[[[5,5],[995,995],[500,5]]],"agg":"max"}`)
	post("/v1/groupnnbatch", `{"groups":[[[420,17]],[[17,420]],[[600,600],[610,590]]]}`)

	// Validation failures, POST and GET alike.
	post("/v1/query", `{"point":[1,2,3]}`)
	post("/v1/possiblenn", `{"point":[1]}`)
	post("/v1/possibleknn", `{"point":[1,2,3],"k":2}`)
	post("/v1/possiblernn", `{"point":[1,2,3]}`)
	post("/v1/groupnn", `{"points":[[1]]}`)
	post("/v1/possibleknnbatch", `{"points":[[1,2],[3]]}`)
	post("/v1/groupnnbatch", `{"groups":[[[1,2]],[[3,4,5]]]}`)
	get("/v1/possiblernn?point=1,2,3")
	get("/v1/query?point=NaN,NaN")
	get("/v1/query?point=500,Inf")
	get("/v1/possiblenn?point=-Inf,1")
	get("/v1/possibleknn?point=nan,1")
	get("/v1/possiblernn?point=1,+Inf")
	get("/v1/query?point=1,abc")
	get("/v1/query")
	get("/v1/possiblenn?point=")
	// Out of the domain: the Step-1 routes refuse it, the extension routes
	// answer it; the boundary itself is inside.
	post("/v1/query", `{"point":[-5,5]}`)
	get("/v1/query?point=2000,2000")
	post("/v1/possiblenn", `{"point":[1000.5,0]}`)
	get("/v1/possiblenn?point=-1,-1")
	post("/v1/query", `{"point":[0,0]}`)
	get("/v1/possiblenn?point=1000,1000")
	post("/v1/possibleknn", `{"point":[-100,-100],"k":3}`)
	post("/v1/possiblernn", `{"point":[1500,500]}`)
	post("/v1/groupnn", `{"points":[[-50,-50],[2000,2000]]}`)
	post("/v1/possibleknnbatch", `{"points":[[-1,-1],[1001,500]],"k":2}`)
	// k: zero, negative, absent, a string, eight.
	post("/v1/possibleknn", `{"point":[500,500],"k":0}`)
	post("/v1/possibleknn", `{"point":[500,500],"k":-1}`)
	post("/v1/possibleknn", `{"point":[500,500],"k":"3"}`)
	post("/v1/possibleknn", `{"point":[500,500]}`)
	post("/v1/possibleknn", `{"point":[500,500],"k":null}`)
	post("/v1/possibleknnbatch", `{"points":[[500,500]],"k":0}`)
	post("/v1/possibleknnbatch", `{"points":[[500,500],[250,750]],"k":8}`)
	// agg: unknown, empty, a number.
	post("/v1/groupnn", `{"points":[[100,100]],"agg":"avg"}`)
	post("/v1/groupnn", `{"points":[[100,100]],"agg":""}`)
	post("/v1/groupnn", `{"points":[[100,100]],"agg":3}`)
	post("/v1/groupnnbatch", `{"groups":[[[100,100]]],"agg":"median"}`)
	// Empty groups and empty batches.
	post("/v1/groupnn", `{"points":[]}`)
	post("/v1/groupnn", `{}`)
	post("/v1/groupnnbatch", `{"groups":[[]]}`)
	post("/v1/groupnnbatch", `{"groups":[[[1,2]],[]]}`)
	post("/v1/groupnnbatch", `{"groups":[]}`)
	post("/v1/possibleknnbatch", `{"points":[]}`)
	post("/v1/possibleknnbatch", `{}`)
	post("/v1/insertbatch", `{"objects":[]}`)
	post("/v1/deletebatch", `{"ids":[]}`)
	post("/v1/deletebatch", `{}`)
	// Malformed bodies.
	post("/v1/query", `{"point":`)
	post("/v1/query", `[]`)
	post("/v1/query", ``)
	post("/v1/query", `{"point":[500,500],"eps":"x"}`)
	post("/v1/possiblenn", `{"point":"500,500"}`)
	post("/v1/insert", `{"id":-1}`)
	post("/v1/delete", `{"id":"x"}`)
	post("/v1/insertbatch", `{"objects":{}}`)
	post("/v1/deletebatch", `{"ids":[1.5]}`)

	// Writes and the queries that see them.
	post("/v1/insert", `{"id":5000,"region":{"lo":[499,499],"hi":[501,501]},"sample":{"kind":"uniform","n":20,"seed":5}}`)
	post("/v1/query", `{"point":[500,500]}`)
	post("/v1/possibleknn", `{"point":[500,500],"k":4}`)
	post("/v1/insert", `{"id":5001,"region":{"lo":[100,100],"hi":[110,110]},"instances":[{"pos":[101,101],"prob":0.5},{"pos":[109,109],"prob":0.5}]}`)
	post("/v1/insert", `{"id":5002,"region":{"lo":[700,200],"hi":[730,260]},"sample":{"kind":"gaussian","n":30,"seed":9}}`)
	post("/v1/insert", `{"id":5003,"region":{"lo":[300,300],"hi":[320,310]}}`)
	post("/v1/possiblenn", `{"point":[105,105]}`)
	get("/v1/query?point=715,230")
	post("/v1/groupnn", `{"points":[[105,105],[310,305]],"agg":"max"}`)
	post("/v1/insert", `{"id":5000,"region":{"lo":[10,10],"hi":[20,20]}}`)                       // duplicate: 409
	post("/v1/insert", `{"id":5010,"region":{"lo":[-50,100],"hi":[-40,200]},"sample":{"n":10}}`) // outside the domain
	post("/v1/insert", `{"id":5011,"region":{"lo":[990,990],"hi":[1005,1005]}}`)                 // crosses the boundary
	post("/v1/insert", `{"id":5012,"region":{"lo":[100,100],"hi":[110,110]},"sample":{"n":10001}}`)
	post("/v1/insert", `{"id":5013,"region":{"lo":[110,100],"hi":[100,110]}}`)
	post("/v1/insert", `{"id":5014,"region":{"lo":[100,100],"hi":[110]}}`)
	post("/v1/insert", `{"id":5015}`)
	post("/v1/insert", `{"id":5016,"region":{"lo":[100,100],"hi":[110,110]},"instances":[{"pos":[101,101],"prob":0.5}]}`)
	post("/v1/insert", `{"id":5017,"region":{"lo":[100,100],"hi":[110,110]},"instances":[{"pos":[120,101],"prob":1}]}`)
	post("/v1/insert", `{"id":5018,"region":{"lo":[100,100],"hi":[110,110]},"instances":[{"pos":[101,101,1],"prob":1}]}`)
	post("/v1/insert", `{"id":5019,"region":{"lo":[100,100,1],"hi":[110,110,2]}}`)
	post("/v1/delete", `{"id":5001}`)
	post("/v1/delete", `{"id":5001}`) // unknown now: 404
	post("/v1/delete", `{"id":424242}`)
	post("/v1/delete", `{}`) // ID 0 exists
	post("/v1/possiblenn", `{"point":[105,105]}`)
	post("/v1/insertbatch", `{"objects":[`+
		`{"id":6000,"region":{"lo":[150,800],"hi":[170,830]},"sample":{"n":15,"seed":1}},`+
		`{"id":6001,"region":{"lo":[200,800],"hi":[220,830]},"sample":{"n":15,"seed":2}},`+
		`{"id":6002,"region":{"lo":[250,800],"hi":[270,830]},"sample":{"kind":"gaussian","n":15,"seed":3}}]}`)
	post("/v1/query", `{"point":[210,815]}`)
	post("/v1/possiblernn", `{"point":[210,815]}`)
	post("/v1/insertbatch", `{"objects":[{"id":6100,"region":{"lo":[10,10],"hi":[20,20]}},{"id":6000,"region":{"lo":[10,10],"hi":[20,20]}}]}`)
	post("/v1/insertbatch", `{"objects":[{"id":6101,"region":{"lo":[10,10],"hi":[20,20]}},{"id":6101,"region":{"lo":[30,30],"hi":[40,40]}}]}`)
	post("/v1/insertbatch", `{"objects":[{"id":6102,"region":{"lo":[10,10],"hi":[20,20]}},{"id":6103,"region":{"lo":[20,10],"hi":[10,20]}}]}`)
	post("/v1/insertbatch", `{"objects":[{"id":6104,"region":{"lo":[10,10],"hi":[20,20]},"sample":{"n":20000}}]}`)
	post("/v1/deletebatch", `{"ids":[6000,6002]}`)
	post("/v1/deletebatch", `{"ids":[6001,6001]}`)
	post("/v1/deletebatch", `{"ids":[424242]}`)
	post("/v1/deletebatch", `{"ids":[6001,5000,5002]}`)
	post("/v1/query", `{"point":[500,500]}`)
	post("/v1/groupnnbatch", `{"groups":[[[210,815]],[[715,230],[105,105]]]}`)
	post("/v1/possibleknnbatch", `{"points":[[500,500],[210,815],[715,230]],"k":3}`)

	// Wrong methods: writes, batches and checkpoint are POST-only; every
	// other query route answers any method, reading a body unless it is GET.
	get("/v1/insert")
	get("/v1/delete")
	get("/v1/insertbatch")
	get("/v1/deletebatch")
	get("/v1/possibleknnbatch")
	get("/v1/groupnnbatch")
	get("/v1/checkpoint")
	add(http.MethodPut, "/v1/insert", `{"id":7000,"region":{"lo":[10,10],"hi":[20,20]}}`)
	add(http.MethodDelete, "/v1/delete", `{"id":3}`)
	add(http.MethodPut, "/v1/deletebatch", `{"ids":[3]}`)
	add(http.MethodPut, "/v1/possibleknnbatch", `{"points":[[1,2]]}`)
	add(http.MethodPut, "/v1/possiblenn", `{"point":[250,250]}`)
	add(http.MethodDelete, "/v1/query", ``)
	add(http.MethodPut, "/v1/groupnn", `{"points":[[250,250]]}`)
	get("/v1/groupnn?point=250,250")
	add(http.MethodPatch, "/v1/possibleknn", `{"point":[250,250],"k":2}`)

	// Operator routes.
	post("/v1/checkpoint", `{}`) // memory mode: 409
	get("/v1/stats")
	post("/v1/stats", ``)
	get("/v1/healthz")
	get("/healthz")

	// Oversized bodies: 413 on the query and the write decoders alike.
	c = append(c,
		wireCase{method: http.MethodPost, path: "/v1/query", body: `{"point":[500,500`, pad: maxBodyBytes},
		wireCase{method: http.MethodPost, path: "/v1/groupnnbatch", body: `{"groups":[[[500,500]]`, pad: maxBodyBytes},
		wireCase{method: http.MethodPost, path: "/v1/insertbatch", body: `{"objects":[`, pad: maxBodyBytes},
		wireCase{method: http.MethodPost, path: "/v1/delete", body: `{"id":1,"x":[`, pad: maxBodyBytes},
	)
	return c
}

// wireIndex builds a seeded index of n small objects (sides 2–10, 20
// instances) over [0, 1000]².
func wireIndex(t testing.TB, n int) *pvoronoi.Index {
	t.Helper()
	rng := rand.New(rand.NewSource(30))
	db := pvoronoi.NewDB(pvoronoi.NewRect(pvoronoi.Point{0, 0}, pvoronoi.Point{1000, 1000}))
	for i := 0; i < n; i++ {
		lo := pvoronoi.Point{rng.Float64() * 990, rng.Float64() * 990}
		region := pvoronoi.NewRect(lo, pvoronoi.Point{lo[0] + 2 + rng.Float64()*8, lo[1] + 2 + rng.Float64()*8})
		o := &pvoronoi.Object{ID: pvoronoi.ID(i), Region: region, Instances: pvoronoi.SampleUniform(region, 20, int64(i))}
		if err := db.Add(o); err != nil {
			t.Fatal(err)
		}
	}
	ix, err := pvoronoi.Build(db, pvoronoi.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// request builds a corpus case as a request.
func (wc wireCase) request() *http.Request {
	var body io.Reader = strings.NewReader(wc.body)
	if wc.pad > 0 {
		body = io.MultiReader(body, io.LimitReader(spaces{}, int64(wc.pad)), strings.NewReader("]}"))
	}
	r := httptest.NewRequest(wc.method, wc.path, body)
	if wc.pad > 0 {
		r.ContentLength = -1
	}
	return r
}

// volatileKeys are the reply fields that carry wall-clock time.
var volatileKeys = []string{"latency_us", "se_us", "index_us", "refine_us"}

// canonicalReply is a 2xx body without its timings, re-marshalled with
// sorted keys; a /v1/stats reply keeps only its object count and status.
func canonicalReply(t *testing.T, path string, body []byte) []byte {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	var v map[string]any
	if err := dec.Decode(&v); err != nil {
		t.Fatalf("%s: reply %q is not a JSON object: %v", path, body, err)
	}
	for _, k := range volatileKeys {
		delete(v, k)
	}
	if path == "/v1/stats" {
		v = map[string]any{"objects": v["objects"], "status": v["status"]}
	}
	out, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// checkErrorBody fails unless body is {"error": <non-empty string>}.
func checkErrorBody(t *testing.T, what string, body []byte) {
	t.Helper()
	var e map[string]any
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("%s: error reply %q is not JSON: %v", what, body, err)
	}
	if msg, ok := e["error"].(string); !ok || msg == "" || len(e) != 1 {
		t.Fatalf("%s: error reply %q is not {\"error\": <message>}", what, body)
	}
}

// TestServeWireGolden pins the HTTP wire: route, method and status of every
// corpus request, and the canonical JSON of every 2xx reply, hash to the
// value recorded before the handlers shared one code path — re-recorded when
// a delete began to recompute only the rows its victim witnessed, which
// changed the affected and examined counts of the corpus's four delete
// replies and nothing else. Error text and key order are free; every non-2xx
// reply must still be {"error": ...}.
func TestServeWireGolden(t *testing.T) {
	const (
		want     = uint64(0x1f4a182f89b4a002)
		wantReqs = 226
	)
	h := newServer(wireIndex(t, 2000)).routes()
	sum := fnv.New64a()
	corpus := wireCorpus()
	for i, wc := range corpus {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, wc.request())
		fmt.Fprintf(sum, "%s %s %d\n", wc.method, wc.path, rec.Code)
		what := fmt.Sprintf("#%d %s %s", i, wc.method, wc.path)
		if rec.Code/100 == 2 {
			path, _, _ := strings.Cut(wc.path, "?")
			sum.Write(canonicalReply(t, path, rec.Body.Bytes()))
			sum.Write([]byte{'\n'})
			if path == "/v1/delete" || path == "/v1/deletebatch" {
				checkDeleteCounts(t, what, rec.Body.Bytes())
			}
		} else {
			checkErrorBody(t, what, rec.Body.Bytes())
		}
		t.Logf("%s -> %d", what, rec.Code)
	}
	if got := sum.Sum64(); got != want || len(corpus) != wantReqs {
		t.Fatalf("wire hash %#x over %d requests; want %#x over %d", got, len(corpus), want, wantReqs)
	}
}

// checkDeleteCounts holds a delete reply to the documented counts: a delete
// recomputes every row its filter (the victim's reverse-index list) names,
// so examined equals affected, and unchanged is a part of them.
func checkDeleteCounts(t *testing.T, what string, body []byte) {
	t.Helper()
	var c struct{ Affected, Unchanged, Examined int }
	if err := json.Unmarshal(body, &c); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if c.Examined != c.Affected || c.Unchanged > c.Affected {
		t.Errorf("%s: delete reply examined %d, affected %d, unchanged %d", what, c.Examined, c.Affected, c.Unchanged)
	}
}

// FuzzServeRequest sends arbitrary bodies, methods and query strings to
// every route of a small in-memory index, seeded from the wire corpus. No
// request may panic or answer 5xx: an in-memory server has no storage to
// fail and no deadline, so every answer is 200 or a client error the API
// names (400, 404, 405, 409, 413), and every non-200 body is
// {"error": <message>}. The index is shared by all inputs of a run, so the
// writes of earlier inputs shape later answers.
func FuzzServeRequest(f *testing.F) {
	for _, wc := range wireCorpus() {
		if wc.pad == 0 {
			f.Add(wc.path, wc.method, []byte(wc.body))
		}
	}
	// Finite coordinates whose distances overflow, and an absurd k.
	f.Add("/v1/possibleknn", http.MethodPost, []byte(`{"point":[1e308,-1e308],"k":9223372036854775807}`))
	f.Add("/v1/groupnnbatch", http.MethodPost, []byte(`{"groups":[[[1e308,1e308],[-1e308,-1e308]]],"agg":"max"}`))
	f.Add("/v1/insert", http.MethodPost, []byte(`{"id":4294967295,"region":{"lo":[1e308,0],"hi":[1e308,0]},"sample":{"n":1}}`))
	known := map[string]bool{"/v1/checkpoint": true, "/v1/stats": true, "/v1/healthz": true, "/healthz": true}
	for _, rt := range routeTable {
		known[rt.path] = true
	}
	h := newServer(wireIndex(f, 200)).routes()
	f.Fuzz(func(t *testing.T, route, method string, body []byte) {
		r, err := http.NewRequest(method, route, bytes.NewReader(body))
		if err != nil || !known[r.URL.EscapedPath()] {
			return // not a request, or not one of ours: the mux's own 404 or redirect
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		what := fmt.Sprintf("%s %q with body %q", method, route, body)
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusNotFound, http.StatusMethodNotAllowed, http.StatusConflict, http.StatusRequestEntityTooLarge:
			checkErrorBody(t, what, rec.Body.Bytes())
		default:
			t.Fatalf("%s: status %d: %s", what, rec.Code, rec.Body.Bytes())
		}
	})
}
