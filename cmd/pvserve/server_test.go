package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"pvoronoi"
	"pvoronoi/internal/dataset"
	"pvoronoi/internal/geom"
	"pvoronoi/internal/uncertain"
	"pvoronoi/internal/vfs"
)

func testIndex(t *testing.T, n int) *pvoronoi.Index {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	db := pvoronoi.NewDB(pvoronoi.NewRect(pvoronoi.Point{0, 0}, pvoronoi.Point{1000, 1000}))
	for i := 0; i < n; i++ {
		lo := pvoronoi.Point{rng.Float64() * 950, rng.Float64() * 950}
		region := pvoronoi.NewRect(lo, pvoronoi.Point{lo[0] + 5 + rng.Float64()*30, lo[1] + 5 + rng.Float64()*30})
		o := &pvoronoi.Object{ID: pvoronoi.ID(i), Region: region,
			Instances: pvoronoi.SampleUniform(region, 20, int64(i))}
		if err := db.Add(o); err != nil {
			t.Fatal(err)
		}
	}
	opts := pvoronoi.DefaultOptions()
	opts.K = 20
	opts.KPartition = 3
	opts.KGlobal = 40
	opts.MemBudget = 1 << 18
	ix, err := pvoronoi.Build(db, opts)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func postJSON(t *testing.T, ts *httptest.Server, path string, body any) (*http.Response, map[string]json.RawMessage) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := make(map[string]json.RawMessage)
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("%s: decoding response: %v", path, err)
	}
	return resp, out
}

// TestServePNNQOverHTTP is the acceptance check: the server answers a full
// PNNQ over HTTP with sane probabilities and per-query cost metrics.
func TestServePNNQOverHTTP(t *testing.T) {
	ix := testIndex(t, 80)
	ts := httptest.NewServer(newServer(ix).routes())
	defer ts.Close()

	resp, out := postJSON(t, ts, "/v1/query", map[string]any{"point": []float64{500, 500}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, out["error"])
	}
	var results []struct {
		ID   uint32  `json:"id"`
		Prob float64 `json:"prob"`
	}
	if err := json.Unmarshal(out["results"], &results); err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("no results for an interior query point")
	}
	var sum float64
	for _, r := range results {
		sum += r.Prob
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("probabilities sum to %g, want 1", sum)
	}
	var leafIO int
	if err := json.Unmarshal(out["leaf_io"], &leafIO); err != nil || leafIO < 1 {
		t.Fatalf("leaf_io = %d (err %v), want >= 1", leafIO, err)
	}

	// Direct library call must agree with the HTTP answer.
	want, err := ix.Query(pvoronoi.Point{500, 500})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(results) {
		t.Fatalf("HTTP returned %d results, library %d", len(results), len(want))
	}
	for i := range want {
		if uint32(want[i].ID) != results[i].ID || math.Abs(want[i].Prob-results[i].Prob) > 1e-9 {
			t.Fatalf("result %d: HTTP (%d, %g) != library (%d, %g)",
				i, results[i].ID, results[i].Prob, want[i].ID, want[i].Prob)
		}
	}

	// Step 2 is exact only: a body that still carries the removed "eps"
	// field gets the same answer.
	_, withEps := postJSON(t, ts, "/v1/query", map[string]any{"point": []float64{500, 500}, "eps": 0.1})
	if !bytes.Equal(withEps["results"], out["results"]) {
		t.Fatalf(`"eps":0.1 changed the results: %s, want %s`, withEps["results"], out["results"])
	}

	// GET form works too.
	getResp, err := http.Get(ts.URL + "/v1/query?point=500,500")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusOK {
		t.Fatalf("GET query status %d", getResp.StatusCode)
	}
}

// Regression: a group of finite points so far apart that their distances,
// sums or centroid overflow once made /v1/groupnn answer 500 with "query
// point has a non-finite coordinate". Every aggregate distance is +∞ then,
// every object ties, and the reply is what the scan gives: all of them,
// summing to 1.
func TestServeGroupNNFarApartPoints(t *testing.T) {
	ix := testIndex(t, 40)
	ts := httptest.NewServer(newServer(ix).routes())
	defer ts.Close()
	for _, points := range [][][]float64{
		{{1e200, 1e200}, {500, 500}},
		{{1e308, 1e308}, {-1e308, -1e308}},
		{{1e308, 1e308}, {1e308, 1e308}},
	} {
		for _, agg := range []string{"sum", "max"} {
			resp, out := postJSON(t, ts, "/v1/groupnn", map[string]any{"points": points, "agg": agg})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("groupnn %v %s: status %d: %s", points, agg, resp.StatusCode, out["error"])
			}
			var results []resultJSON
			if err := json.Unmarshal(out["results"], &results); err != nil {
				t.Fatal(err)
			}
			var sum float64
			for _, r := range results {
				sum += r.Prob
			}
			if len(results) != 40 || math.Abs(sum-1) > 1e-9 {
				t.Fatalf("groupnn %v %s: %d results summing to %g, want 40 summing to 1", points, agg, len(results), sum)
			}
		}
	}
}

func TestServeEndpoints(t *testing.T) {
	ix := testIndex(t, 60)
	ts := httptest.NewServer(newServer(ix).routes())
	defer ts.Close()

	resp, out := postJSON(t, ts, "/v1/possiblenn", map[string]any{"point": []float64{200, 700}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("possiblenn status %d: %s", resp.StatusCode, out["error"])
	}

	resp, out = postJSON(t, ts, "/v1/possibleknn", map[string]any{"point": []float64{200, 700}, "k": 3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("possibleknn status %d: %s", resp.StatusCode, out["error"])
	}

	resp, out = postJSON(t, ts, "/v1/groupnn", map[string]any{
		"points": [][]float64{{100, 100}, {300, 200}}, "agg": "max"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("groupnn status %d: %s", resp.StatusCode, out["error"])
	}

	// Insert a fresh object right at a probe point, then find it.
	resp, out = postJSON(t, ts, "/v1/insert", map[string]any{
		"id":     9000,
		"region": map[string]any{"lo": []float64{499, 499}, "hi": []float64{501, 501}},
		"sample": map[string]any{"kind": "uniform", "n": 20, "seed": 5},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert status %d: %s", resp.StatusCode, out["error"])
	}
	if out["affected"] == nil || out["unchanged"] == nil {
		t.Fatalf("insert reply lacks affected/unchanged: %v", out)
	}
	resp, out = postJSON(t, ts, "/v1/query", map[string]any{"point": []float64{500, 500}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d: %s", resp.StatusCode, out["error"])
	}
	var results []struct {
		ID   uint32  `json:"id"`
		Prob float64 `json:"prob"`
	}
	if err := json.Unmarshal(out["results"], &results); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range results {
		if r.ID == 9000 {
			found = true
		}
	}
	if !found {
		t.Fatal("inserted object 9000 not returned for a query at its center")
	}

	// Wrong-dimension points are rejected cleanly, not panicked on.
	resp, out = postJSON(t, ts, "/v1/query", map[string]any{"point": []float64{1, 2, 3}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("3-d point on 2-d index: status %d, want 400", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts, "/v1/groupnn", map[string]any{"points": [][]float64{{1}}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("1-d group point on 2-d index: status %d, want 400", resp.StatusCode)
	}

	// Non-finite coordinates — which only the GET form's ParseFloat lets
	// through — are a client error, not an empty 200.
	for _, path := range []string{"/v1/query?point=NaN,NaN", "/v1/query?point=500,Inf", "/v1/possiblenn?point=-Inf,1", "/v1/possiblernn?point=nan,1"} {
		getResp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		getResp.Body.Close()
		if getResp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET %s: status %d, want 400", path, getResp.StatusCode)
		}
	}

	// Duplicate insert conflicts; delete works; unknown delete is 404.
	resp, _ = postJSON(t, ts, "/v1/insert", map[string]any{
		"id":     9000,
		"region": map[string]any{"lo": []float64{10, 10}, "hi": []float64{20, 20}},
	})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate insert status %d, want 409", resp.StatusCode)
	}
	resp, out = postJSON(t, ts, "/v1/delete", map[string]any{"id": 9000})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete status %d", resp.StatusCode)
	}
	if out["affected"] == nil || out["unchanged"] == nil {
		t.Fatalf("delete reply lacks affected/unchanged: %v", out)
	}
	resp, _ = postJSON(t, ts, "/v1/delete", map[string]any{"id": 9000})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("double delete status %d, want 404", resp.StatusCode)
	}

	// Stats reflect the traffic.
	statsResp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer statsResp.Body.Close()
	var stats struct {
		Objects   int `json:"objects"`
		Endpoints map[string]struct {
			Count int64 `json:"count"`
			P50   int64 `json:"p50_us"`
		} `json:"endpoints"`
	}
	if err := json.NewDecoder(statsResp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Objects != 60 {
		t.Fatalf("stats report %d objects, want 60", stats.Objects)
	}
	if stats.Endpoints["query"].Count < 1 {
		t.Fatalf("stats report %d query calls, want >= 1", stats.Endpoints["query"].Count)
	}
	if stats.Endpoints["insert"].Count < 1 || stats.Endpoints["delete"].Count < 1 {
		t.Fatal("stats missing insert/delete traffic")
	}
}

// TestServeInsertValidation: an object whose region leaves the domain and a
// sample.n above the cap are client errors (400) on both insert endpoints and
// leave the index as it was; a region that only touches the boundary is fine.
func TestServeInsertValidation(t *testing.T) {
	ix := testIndex(t, 40) // domain [0,1000]²
	ts := httptest.NewServer(newServer(ix).routes())
	defer ts.Close()

	insert := func(id int, lo, hi []float64, n int) map[string]any {
		return map[string]any{"id": id, "region": map[string]any{"lo": lo, "hi": hi}, "sample": map[string]any{"n": n}}
	}
	outside := insert(7001, []float64{-50, 100}, []float64{-40, 200}, 10)
	corner := insert(7002, []float64{990, 990}, []float64{1005, 1005}, 10)
	huge := insert(7003, []float64{100, 100}, []float64{110, 110}, maxSampleN+1)
	good := insert(7004, []float64{300, 300}, []float64{310, 310}, 10)

	epoch := ix.Epoch()
	for name, body := range map[string]map[string]any{"outside": outside, "corner": corner, "sample.n": huge} {
		if resp, _ := postJSON(t, ts, "/v1/insert", body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("/v1/insert %s: status %d, want 400", name, resp.StatusCode)
		}
		batch := map[string]any{"objects": []any{good, body}}
		if resp, _ := postJSON(t, ts, "/v1/insertbatch", batch); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("/v1/insertbatch with %s: status %d, want 400", name, resp.StatusCode)
		}
	}
	if ix.Epoch() != epoch || ix.Len() != 40 {
		t.Fatalf("rejected inserts changed the index: epoch %d→%d, %d objects", epoch, ix.Epoch(), ix.Len())
	}

	touching := insert(7005, []float64{0, 990}, []float64{10, 1000}, maxSampleN)
	if resp, out := postJSON(t, ts, "/v1/insert", touching); resp.StatusCode != http.StatusOK {
		t.Fatalf("boundary-touching insert with sample.n at the cap: status %d: %s", resp.StatusCode, out["error"])
	}
}

// TestStatsRuntimeBlock checks /v1/stats exposes the Go runtime block:
// heap size, object count, GC cycle count, total GC pause, and GOMAXPROCS.
func TestStatsRuntimeBlock(t *testing.T) {
	ix := testIndex(t, 20)
	ts := httptest.NewServer(newServer(ix).routes())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Runtime struct {
			HeapAlloc    uint64   `json:"heap_alloc_bytes"`
			HeapObjects  uint64   `json:"heap_objects"`
			NumGC        *uint32  `json:"num_gc"`
			GCPauseTotal *float64 `json:"gc_pause_total_s"`
			GoMaxProcs   int      `json:"gomaxprocs"`
		} `json:"runtime"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	rt := stats.Runtime
	if rt.HeapAlloc == 0 || rt.HeapObjects == 0 {
		t.Fatalf("runtime block reports empty heap: %+v", rt)
	}
	if rt.NumGC == nil || rt.GCPauseTotal == nil {
		t.Fatalf("runtime block missing GC fields: %+v", rt)
	}
	if *rt.GCPauseTotal < 0 {
		t.Fatalf("negative total GC pause %f", *rt.GCPauseTotal)
	}
	if rt.GoMaxProcs < 1 {
		t.Fatalf("gomaxprocs = %d, want >= 1", rt.GoMaxProcs)
	}
}

// TestServeExtensionEndpoints covers the extension-query surface: the
// reverse-NN endpoint, the worker-pool batch endpoints, per-query retrieval
// cost fields, and per-endpoint metrics.
func TestServeExtensionEndpoints(t *testing.T) {
	ix := testIndex(t, 60)
	ts := httptest.NewServer(newServer(ix).routes())
	defer ts.Close()

	// possiblernn: a point at an object's center must list that object, and
	// the response must carry the retrieval cost breakdown.
	center := ix.DB().Objects()[0].Region.Center()
	wantID := uint32(ix.DB().Objects()[0].ID)
	resp, out := postJSON(t, ts, "/v1/possiblernn", map[string]any{"point": []float64(center)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("possiblernn status %d: %s", resp.StatusCode, out["error"])
	}
	var ids []uint32
	if err := json.Unmarshal(out["ids"], &ids); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, id := range ids {
		if id == wantID {
			found = true
		}
	}
	if !found {
		t.Fatalf("object %d containing the probe missing from RNN ids %v", wantID, ids)
	}
	var leafIO int
	if err := json.Unmarshal(out["leaf_io"], &leafIO); err != nil || leafIO < 1 {
		t.Fatalf("possiblernn leaf_io = %d (err %v), want >= 1", leafIO, err)
	}

	// GET form of possiblernn.
	getResp, err := http.Get(ts.URL + "/v1/possiblernn?point=500,500")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusOK {
		t.Fatalf("GET possiblernn status %d", getResp.StatusCode)
	}

	// possibleknn responses carry retrieval cost too.
	resp, out = postJSON(t, ts, "/v1/possibleknn", map[string]any{"point": []float64{200, 700}, "k": 3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("possibleknn status %d: %s", resp.StatusCode, out["error"])
	}
	if err := json.Unmarshal(out["leaf_io"], &leafIO); err != nil || leafIO < 1 {
		t.Fatalf("possibleknn leaf_io = %d (err %v), want >= 1", leafIO, err)
	}

	// Batch endpoints return positional results matching the library.
	points := [][]float64{{200, 700}, {500, 500}, {800, 100}}
	resp, out = postJSON(t, ts, "/v1/possibleknnbatch", map[string]any{"points": points, "k": 2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("possibleknnbatch status %d: %s", resp.StatusCode, out["error"])
	}
	var batchResults [][]struct {
		ID   uint32  `json:"id"`
		Prob float64 `json:"prob"`
	}
	if err := json.Unmarshal(out["results"], &batchResults); err != nil {
		t.Fatal(err)
	}
	if len(batchResults) != len(points) {
		t.Fatalf("possibleknnbatch returned %d result sets, want %d", len(batchResults), len(points))
	}
	want, err := ix.PossibleKNN(pvoronoi.Point{500, 500}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(batchResults[1]) != len(want) {
		t.Fatalf("batch result 1 has %d entries, library %d", len(batchResults[1]), len(want))
	}
	for i := range want {
		if batchResults[1][i].ID != uint32(want[i].ID) || math.Abs(batchResults[1][i].Prob-want[i].Prob) > 1e-9 {
			t.Fatalf("batch result mismatch at %d", i)
		}
	}

	resp, out = postJSON(t, ts, "/v1/groupnnbatch", map[string]any{
		"groups": [][][]float64{{{100, 100}, {300, 200}}, {{700, 700}}},
		"agg":    "sum",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("groupnnbatch status %d: %s", resp.StatusCode, out["error"])
	}
	if err := json.Unmarshal(out["results"], &batchResults); err != nil {
		t.Fatal(err)
	}
	if len(batchResults) != 2 {
		t.Fatalf("groupnnbatch returned %d result sets, want 2", len(batchResults))
	}

	// Validation errors stay 400.
	resp, _ = postJSON(t, ts, "/v1/possiblernn", map[string]any{"point": []float64{1, 2, 3}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("3-d point on 2-d index: status %d, want 400", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts, "/v1/possibleknnbatch", map[string]any{"points": [][]float64{}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d, want 400", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts, "/v1/groupnnbatch", map[string]any{"groups": [][][]float64{{}}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty group in batch: status %d, want 400", resp.StatusCode)
	}

	// Per-endpoint metrics picked up the new traffic.
	statsResp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer statsResp.Body.Close()
	var stats struct {
		Endpoints map[string]struct {
			Count int64 `json:"count"`
		} `json:"endpoints"`
	}
	if err := json.NewDecoder(statsResp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"possiblernn", "possibleknn", "possibleknnbatch", "groupnnbatch"} {
		if stats.Endpoints[name].Count < 1 {
			t.Fatalf("stats missing %s traffic: %+v", name, stats.Endpoints)
		}
	}
}

// TestServeConcurrentTraffic drives queries and writes through the full HTTP
// stack in parallel — the serving-layer analogue of the library's
// concurrency stress test.
func TestServeConcurrentTraffic(t *testing.T) {
	ix := testIndex(t, 60)
	ts := httptest.NewServer(newServer(ix).routes())
	defer ts.Close()

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 30; i++ {
				body, _ := json.Marshal(map[string]any{
					"point": []float64{rng.Float64() * 1000, rng.Float64() * 1000}})
				resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("query status %d", resp.StatusCode)
					return
				}
			}
		}(int64(w))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 15; i++ {
			id := 5000 + i
			body, _ := json.Marshal(map[string]any{
				"id":     id,
				"region": map[string]any{"lo": []float64{10, 10}, "hi": []float64{40, 40}},
				"sample": map[string]any{"n": 10, "seed": id},
			})
			resp, err := http.Post(ts.URL+"/v1/insert", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("insert status %d", resp.StatusCode)
				return
			}
			body, _ = json.Marshal(map[string]any{"id": id})
			resp, err = http.Post(ts.URL+"/v1/delete", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("delete status %d", resp.StatusCode)
				return
			}
		}
	}()
	wg.Wait()

	if got := ix.Len(); got != 60 {
		t.Fatalf("index has %d objects after churn, want 60", got)
	}
}

// TestServeBatchEndpoints exercises the group-commit insert/delete routes.
func TestServeBatchEndpoints(t *testing.T) {
	ix := testIndex(t, 50)
	ts := httptest.NewServer(newServer(ix).routes())
	defer ts.Close()

	var objs []map[string]any
	for i := 0; i < 6; i++ {
		objs = append(objs, map[string]any{
			"id":     7000 + i,
			"region": map[string]any{"lo": []float64{float64(100 + i*50), 100}, "hi": []float64{float64(120 + i*50), 130}},
			"sample": map[string]any{"n": 10, "seed": i},
		})
	}
	resp, out := postJSON(t, ts, "/v1/insertbatch", map[string]any{"objects": objs})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insertbatch status %d: %s", resp.StatusCode, out["error"])
	}
	var count int
	if err := json.Unmarshal(out["count"], &count); err != nil || count != 6 {
		t.Fatalf("insertbatch count = %d (err %v), want 6", count, err)
	}
	if got := ix.Len(); got != 56 {
		t.Fatalf("index has %d objects after batch insert, want 56", got)
	}
	checkBatchStages(t, "insertbatch", out)

	// A batch with one duplicate applies nothing.
	resp, _ = postJSON(t, ts, "/v1/insertbatch", map[string]any{"objects": []map[string]any{
		{"id": 7100, "region": map[string]any{"lo": []float64{10, 10}, "hi": []float64{20, 20}}},
		{"id": 7000, "region": map[string]any{"lo": []float64{10, 10}, "hi": []float64{20, 20}}},
	}})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate in batch: status %d, want 409", resp.StatusCode)
	}
	if got := ix.Len(); got != 56 {
		t.Fatalf("failed batch mutated the index: %d objects", got)
	}

	resp, out = postJSON(t, ts, "/v1/deletebatch", map[string]any{"ids": []int{7000, 7001, 7002, 7003, 7004, 7005}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deletebatch status %d: %s", resp.StatusCode, out["error"])
	}
	if got := ix.Len(); got != 50 {
		t.Fatalf("index has %d objects after batch delete, want 50", got)
	}
	checkBatchStages(t, "deletebatch", out)
	resp, _ = postJSON(t, ts, "/v1/deletebatch", map[string]any{"ids": []int{424242}})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown deletebatch: status %d, want 404", resp.StatusCode)
	}

	// Checkpoint without durable mode is a clean 409.
	resp, _ = postJSON(t, ts, "/v1/checkpoint", map[string]any{})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("checkpoint in memory mode: status %d, want 409", resp.StatusCode)
	}
}

// checkBatchStages checks a batch reply's counts and stage breakdown: all
// three stages present, SE non-zero (every write batch runs it), and no more
// rows left unchanged than were recomputed.
func checkBatchStages(t *testing.T, route string, out map[string]json.RawMessage) {
	t.Helper()
	stage := map[string]int64{}
	for _, f := range []string{"affected", "unchanged", "latency_us", "se_us", "index_us", "refine_us"} {
		var v int64
		if err := json.Unmarshal(out[f], &v); err != nil || v < 0 {
			t.Fatalf("%s reply: field %s = %s (err %v)", route, f, out[f], err)
		}
		stage[f] = v
	}
	if stage["se_us"] == 0 {
		t.Fatalf("%s reply names no SE time: %v", route, stage)
	}
	if _, ok := out["adjacency_us"]; ok {
		t.Fatalf("%s reply still carries adjacency_us", route)
	}
	if stage["unchanged"] > stage["affected"] {
		t.Fatalf("%s reply: %d rows unchanged of %d affected", route, stage["unchanged"], stage["affected"])
	}
}

// TestServeBodyBound: a body past maxBodyBytes is refused with 413 and the
// JSON error shape on every route family that reads one — queries, batches
// and writes — instead of being decoded whole; a body just under the bound
// still gets its own answer.
func TestServeBodyBound(t *testing.T) {
	ix := testIndex(t, 30)
	h := newServer(ix).routes()
	post := func(path, head string, pad int) (int, string) {
		body := io.MultiReader(strings.NewReader(head), io.LimitReader(spaces{}, int64(pad)), strings.NewReader("]}"))
		req := httptest.NewRequest(http.MethodPost, path, body)
		req.ContentLength = -1 // chunked: only the reader itself can bound it
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		var e errorJSON
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
			t.Fatalf("%s: reply %q is not JSON: %v", path, rec.Body.String(), err)
		}
		return rec.Code, e.Error
	}
	for path, head := range map[string]string{
		"/v1/query":        `{"point":[500,500`,
		"/v1/groupnnbatch": `{"groups":[[[500,500]]`,
		"/v1/insert":       `{"id":1,"instances":[`,
		"/v1/delete":       `{"id":1,"x":[`,
		"/v1/insertbatch":  `{"objects":[`,
		"/v1/deletebatch":  `{"ids":[`,
	} {
		if code, msg := post(path, head, maxBodyBytes); code != http.StatusRequestEntityTooLarge || msg == "" {
			t.Errorf("%s with a %d-byte body: status %d (%q), want 413", path, maxBodyBytes+len(head)+2, code, msg)
		}
	}
	if code, msg := post("/v1/deletebatch", `{"ids":[`, maxBodyBytes-64); code != http.StatusBadRequest {
		t.Errorf("deletebatch just under the bound: status %d (%q), want the handler's own 400", code, msg)
	}
	if got := ix.Len(); got != 30 {
		t.Fatalf("refused bodies changed the index: %d objects", got)
	}
}

// spaces is an endless reader of JSON whitespace.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestServeDurableCheckpointAndRecovery runs the server against a durable
// index, checkpoints over HTTP, and verifies a second open sees the updates.
func TestServeDurableCheckpointAndRecovery(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(9))
	db := pvoronoi.NewDB(pvoronoi.NewRect(pvoronoi.Point{0, 0}, pvoronoi.Point{1000, 1000}))
	for i := 0; i < 40; i++ {
		lo := pvoronoi.Point{rng.Float64() * 950, rng.Float64() * 950}
		region := pvoronoi.NewRect(lo, pvoronoi.Point{lo[0] + 10, lo[1] + 10})
		if err := db.Add(&pvoronoi.Object{ID: pvoronoi.ID(i), Region: region}); err != nil {
			t.Fatal(err)
		}
	}
	opts := pvoronoi.DefaultOptions()
	opts.MemBudget = 1 << 18
	d, err := pvoronoi.OpenDurable(dir, db, opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newDurableServer(d).routes())

	resp, out := postJSON(t, ts, "/v1/insert", map[string]any{
		"id":     9500,
		"region": map[string]any{"lo": []float64{400, 400}, "hi": []float64{420, 420}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("durable insert status %d: %s", resp.StatusCode, out["error"])
	}
	resp, out = postJSON(t, ts, "/v1/checkpoint", map[string]any{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint status %d: %s", resp.StatusCode, out["error"])
	}
	var skipped bool
	if err := json.Unmarshal(out["skipped"], &skipped); err != nil || skipped {
		t.Fatalf("first checkpoint skipped=%v (err %v), want a real snapshot", skipped, err)
	}

	// Stats expose the durable counters.
	statsResp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Durable struct {
			WALSeq   uint64 `json:"wal_seq"`
			WALSyncs int64  `json:"wal_syncs"`
		} `json:"durable"`
	}
	err = json.NewDecoder(statsResp.Body).Decode(&stats)
	statsResp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Durable.WALSeq == 0 || stats.Durable.WALSyncs == 0 {
		t.Fatalf("durable stats missing: %+v", stats.Durable)
	}

	ts.Close()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the update must still be there.
	d2, err := pvoronoi.OpenDurable(dir, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.DB().Get(9500) == nil {
		t.Fatal("update lost across restart")
	}
	if d2.Len() != 41 {
		t.Fatalf("recovered %d objects, want 41", d2.Len())
	}
}

// TestStatsMVCCGauges checks /v1/stats surfaces the MVCC snapshot
// lifecycle: the write epoch (which must advance with updates), the
// in-flight reader gauge, and the live/reclaimed version counters.
func TestStatsMVCCGauges(t *testing.T) {
	ix := testIndex(t, 40)
	ts := httptest.NewServer(newServer(ix).routes())
	defer ts.Close()

	readStats := func() (epoch, live, reclaimed, inflight int64) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var stats struct {
			MVCC struct {
				Epoch           int64 `json:"epoch"`
				InflightReaders int64 `json:"inflight_readers"`
				LiveVersions    int64 `json:"live_versions"`
				Reclaimed       int64 `json:"reclaimed"`
			} `json:"mvcc"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
			t.Fatal(err)
		}
		return stats.MVCC.Epoch, stats.MVCC.LiveVersions, stats.MVCC.Reclaimed, stats.MVCC.InflightReaders
	}

	epoch0, live0, _, _ := readStats()
	if epoch0 < 1 {
		t.Fatalf("published epoch %d, want >= 1", epoch0)
	}
	if live0 != 1 {
		t.Fatalf("idle server reports %d live versions, want 1", live0)
	}

	// An insert publishes a new version; the epoch must advance and the
	// retired predecessor must be reclaimed (no reader pins it).
	body, _ := json.Marshal(map[string]any{
		"id":     8800,
		"region": map[string]any{"lo": []float64{10, 10}, "hi": []float64{30, 30}},
		"sample": map[string]any{"n": 5, "seed": 1},
	})
	resp, err := http.Post(ts.URL+"/v1/insert", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert status %d", resp.StatusCode)
	}

	epoch1, live1, reclaimed1, inflight1 := readStats()
	if epoch1 != epoch0+1 {
		t.Fatalf("epoch after insert = %d, want %d", epoch1, epoch0+1)
	}
	if live1 != 1 {
		t.Fatalf("live versions after insert = %d, want 1", live1)
	}
	if reclaimed1 < 1 {
		t.Fatalf("reclaimed counter = %d, want >= 1", reclaimed1)
	}
	if inflight1 != 0 {
		t.Fatalf("idle in-flight readers = %d, want 0", inflight1)
	}
}

// TestServeDegradedMode drives the whole degraded-mode state machine over
// HTTP against an injected disk-full fault: writes hit 503 with Retry-After,
// reads keep serving off the last MVCC version, /v1/healthz and /v1/stats
// report degraded with the cause, and a successful /v1/checkpoint after the
// fault clears re-arms the write path.
func TestServeDegradedMode(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(11))
	db := pvoronoi.NewDB(pvoronoi.NewRect(pvoronoi.Point{0, 0}, pvoronoi.Point{1000, 1000}))
	for i := 0; i < 40; i++ {
		lo := pvoronoi.Point{rng.Float64() * 950, rng.Float64() * 950}
		region := pvoronoi.NewRect(lo, pvoronoi.Point{lo[0] + 10, lo[1] + 10})
		if err := db.Add(&pvoronoi.Object{ID: pvoronoi.ID(i), Region: region}); err != nil {
			t.Fatal(err)
		}
	}
	ffs := vfs.NewFaultFS(nil)
	opts := pvoronoi.DefaultOptions()
	opts.MemBudget = 1 << 18
	opts.FS = ffs
	d, err := pvoronoi.OpenDurable(dir, db, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ts := httptest.NewServer(newDurableServer(d).routes())
	defer ts.Close()

	insert := func(id int) (*http.Response, map[string]json.RawMessage) {
		return postJSON(t, ts, "/v1/insert", map[string]any{
			"id":     id,
			"region": map[string]any{"lo": []float64{400, 400}, "hi": []float64{420, 420}},
		})
	}
	health := func() (string, string) {
		resp, err := http.Get(ts.URL + "/v1/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var h struct {
			Status string `json:"status"`
			Cause  string `json:"cause"`
		}
		err = json.NewDecoder(resp.Body).Decode(&h)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return h.Status, h.Cause
	}

	// Healthy baseline.
	if resp, out := insert(9000); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy insert status %d: %s", resp.StatusCode, out["error"])
	}
	if st, _ := health(); st != "ok" {
		t.Fatalf("healthz before fault: %q", st)
	}

	// Disk full: the WAL append fail-stops, the write gets 503 + Retry-After.
	ffs.SetWriteBudget(0)
	resp, out := insert(9001)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("insert under ENOSPC: status %d (%s), want 503", resp.StatusCode, out["error"])
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	if d.DB().Get(9001) != nil {
		t.Fatal("failed insert is visible")
	}

	// Degraded is sticky: the next write is refused up front.
	if resp, _ := insert(9002); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("second insert while degraded: status %d, want 503", resp.StatusCode)
	}
	if st, cause := health(); st != "degraded" || cause == "" {
		t.Fatalf("healthz under fault: status %q cause %q", st, cause)
	}

	// Reads keep flowing off the last published version.
	resp, out = postJSON(t, ts, "/v1/possiblenn", map[string]any{"point": []float64{500, 500}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("read while degraded: status %d (%s)", resp.StatusCode, out["error"])
	}
	resp, _ = postJSON(t, ts, "/v1/query", map[string]any{"point": []float64{500, 500}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query while degraded: status %d", resp.StatusCode)
	}

	// Stats surface the degradation.
	statsResp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Status  string `json:"status"`
		Cause   string `json:"degraded_cause"`
		Durable struct {
			WALHealthy bool `json:"wal_healthy"`
		} `json:"durable"`
	}
	err = json.NewDecoder(statsResp.Body).Decode(&stats)
	statsResp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Status != "degraded" || stats.Cause == "" || stats.Durable.WALHealthy {
		t.Fatalf("stats under fault: %+v", stats)
	}

	// Checkpoint while the disk is still full fails and stays degraded.
	if resp, _ := postJSON(t, ts, "/v1/checkpoint", map[string]any{}); resp.StatusCode == http.StatusOK {
		t.Fatal("checkpoint succeeded while the disk is full")
	}
	if st, _ := health(); st != "degraded" {
		t.Fatal("failed checkpoint cleared degraded mode")
	}

	// Operator frees the disk; a successful checkpoint re-arms writes.
	ffs.ClearFaults()
	resp, out = postJSON(t, ts, "/v1/checkpoint", map[string]any{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-arm checkpoint status %d: %s", resp.StatusCode, out["error"])
	}
	if st, _ := health(); st != "ok" {
		t.Fatal("healthz still degraded after successful checkpoint")
	}
	resp, out = insert(9003)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert after re-arm: status %d (%s)", resp.StatusCode, out["error"])
	}
	if d.DB().Get(9003) == nil {
		t.Fatal("post-re-arm insert not applied")
	}
}

// TestServeAdmissionShedding fills the admission semaphore and checks new
// work is shed with 503 while health and stats stay reachable.
func TestServeAdmissionShedding(t *testing.T) {
	ix := testIndex(t, 60)
	s := newServer(ix)
	s.maxInflight = 2
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	// Occupy every admission slot (requests park in the semaphore channel,
	// so filling it directly models two stuck in-flight requests).
	s.inflight <- struct{}{}
	s.inflight <- struct{}{}

	resp, _ := postJSON(t, ts, "/v1/possiblenn", map[string]any{"point": []float64{500, 500}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("query at capacity: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response without Retry-After")
	}
	// Operator endpoints bypass admission.
	hr, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil || hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz at capacity: %v %d", err, hr.StatusCode)
	}
	hr.Body.Close()
	sr, err := http.Get(ts.URL + "/v1/stats")
	if err != nil || sr.StatusCode != http.StatusOK {
		t.Fatalf("stats at capacity: %v %d", err, sr.StatusCode)
	}
	sr.Body.Close()

	// Slots free up; service resumes.
	<-s.inflight
	<-s.inflight
	resp, _ = postJSON(t, ts, "/v1/possiblenn", map[string]any{"point": []float64{500, 500}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query after drain: status %d", resp.StatusCode)
	}
}

// TestServeRequestTimeout proves the per-request deadline reaches the batch
// query pool: an already-expired deadline turns into 504, not a hang.
func TestServeRequestTimeout(t *testing.T) {
	ix := testIndex(t, 60)
	s := newServer(ix)
	s.reqTimeout = time.Nanosecond
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	resp, _ := postJSON(t, ts, "/v1/possibleknnbatch", map[string]any{
		"points": [][]float64{{100, 100}, {500, 500}, {900, 900}},
		"k":      2,
	})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("expired batch: status %d, want 504", resp.StatusCode)
	}
}

// TestStatsAdjacencyRefinement checks the /v1/stats refine block: the
// refinement subsystem's lifetime counters, non-zero on clustered data, where
// the rule escalates rows at build, with the refined rows that came back
// bit-identical a part of them. The block that reported the adjacency graph
// is gone, and so is the clip walk's counter.
func TestStatsAdjacencyRefinement(t *testing.T) {
	db := dataset.Synthetic(dataset.SyntheticParams{N: 400, Dim: 2, Seed: 7, Clustered: true})
	ix, err := pvoronoi.Build(db, pvoronoi.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(ix).routes())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if _, ok := stats["adjacency"]; ok {
		t.Fatal("/v1/stats still carries the adjacency block")
	}
	var ref struct {
		RowsRefined   int64 `json:"rows_refined"`
		RowsUnchanged int64 `json:"rows_unchanged"`
		BudgetSpent   int64 `json:"refine_budget_spent"`
	}
	if err := json.Unmarshal(stats["refine"], &ref); err != nil {
		t.Fatalf("refine block %s: %v", stats["refine"], err)
	}
	if bytes.Contains(stats["refine"], []byte("clip_passes")) {
		t.Fatalf("refine block %s still reports clip passes", stats["refine"])
	}
	if want := ix.RefineCounters(); ref.RowsRefined != want.RowsRefined || ref.RowsUnchanged != want.RowsUnchanged ||
		ref.BudgetSpent != want.BudgetSpent {
		t.Fatalf("refine block %+v, index counters %+v", ref, want)
	}
	if ref.RowsUnchanged > ref.RowsRefined {
		t.Fatalf("rows_unchanged %d > rows_refined %d", ref.RowsUnchanged, ref.RowsRefined)
	}
	if ref.RowsRefined < 1 || ref.BudgetSpent < 1 {
		t.Fatalf("refinement counters empty: rows_refined=%d budget=%d", ref.RowsRefined, ref.BudgetSpent)
	}
}

// TestServeErrorStatus holds the one error → status mapping every table
// route answers through, for writes and queries, on wrapped errors; and
// checks that an out-of-domain point is refused in validation — 400 on both
// Step-1 routes, counted in no endpoint's errors — so that a failure after
// validation is the server's (500).
func TestServeErrorStatus(t *testing.T) {
	s := newServer(testIndex(t, 30))
	other := errors.New("page read failed")
	for _, c := range []struct {
		err         error
		write, want int
	}{
		{pvoronoi.ErrWAL, http.StatusServiceUnavailable, http.StatusServiceUnavailable},
		{uncertain.ErrDuplicateID, http.StatusConflict, http.StatusConflict},
		{uncertain.ErrUnknownID, http.StatusNotFound, http.StatusNotFound},
		{context.DeadlineExceeded, http.StatusGatewayTimeout, http.StatusGatewayTimeout},
		{context.Canceled, 499, 499},
		{other, http.StatusBadRequest, http.StatusInternalServerError},
	} {
		for _, write := range []bool{true, false} {
			rec := httptest.NewRecorder()
			s.fail(rec, fmt.Errorf("batch op 3: %w", c.err), write)
			want := c.want
			if write {
				want = c.write
			}
			if rec.Code != want {
				t.Errorf("%v (write %v): status %d, want %d", c.err, write, rec.Code, want)
			}
			if got := rec.Header().Get("Retry-After"); (got != "") != (want == http.StatusServiceUnavailable) {
				t.Errorf("%v (write %v): Retry-After %q", c.err, write, got)
			}
		}
	}
	if degraded, _, _ := s.degradedState(); !degraded {
		t.Fatal("a WAL failure did not put the server in degraded mode")
	}

	ts := httptest.NewServer(newServer(testIndex(t, 30)).routes())
	defer ts.Close()
	for _, path := range []string{"/v1/query", "/v1/possiblenn"} {
		if resp, _ := postJSON(t, ts, path, map[string]any{"point": []float64{-1, 500}}); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s outside the domain: status %d, want 400", path, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Endpoints map[string]endpointSnapshot `json:"endpoints"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if len(stats.Endpoints) != 0 {
		t.Fatalf("refused requests reached the metrics: %+v", stats.Endpoints)
	}
}

// TestGeneratorDimensionBound: -d outside [1, geom.MaxDim] is refused before
// anything is generated or built; both ends of the range are accepted.
func TestGeneratorDimensionBound(t *testing.T) {
	for _, d := range []int{0, 1, geom.MaxDim, geom.MaxDim + 1} {
		db, err := loadOrGenerate("", 4, d, 60, 5, 1)
		if ok := d >= 1 && d <= geom.MaxDim; !ok {
			if err == nil || !strings.Contains(err.Error(), "dimension") {
				t.Errorf("-d %d: loadOrGenerate returned %v", d, err)
			}
		} else if err != nil {
			t.Errorf("-d %d: %v", d, err)
		} else if db.Dim() != d {
			t.Errorf("-d %d: loadOrGenerate returned a %d-d database", d, db.Dim())
		}
	}
}
