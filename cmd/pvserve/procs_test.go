package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
)

// TestSparePCounted: the first of overlapping lends raises GOMAXPROCS by
// one, the last gives it back, and base reports the value without the spare
// P all along.
func TestSparePCounted(t *testing.T) {
	startup := runtime.GOMAXPROCS(0)
	var p spareP
	first := p.lend()
	second := p.lend()
	if got := runtime.GOMAXPROCS(0); got != startup+1 {
		t.Fatalf("two writes in flight: GOMAXPROCS %d, want %d", got, startup+1)
	}
	if got := p.base(); got != startup {
		t.Fatalf("base during writes = %d, want %d", got, startup)
	}
	first()
	if got := runtime.GOMAXPROCS(0); got != startup+1 {
		t.Fatalf("one write still in flight: GOMAXPROCS %d, want %d", got, startup+1)
	}
	second()
	if got := runtime.GOMAXPROCS(0); got != startup {
		t.Fatalf("no write in flight: GOMAXPROCS %d, want %d", got, startup)
	}
}

// TestWritesRestoreGOMAXPROCS: over HTTP, GOMAXPROCS is back at its startup
// value after a successful write, after writes refused with 400, 409 and
// 404, and after two concurrent batches; /v1/stats reports the startup
// value, also while a write holds the spare P.
func TestWritesRestoreGOMAXPROCS(t *testing.T) {
	startup := runtime.GOMAXPROCS(0)
	ix := testIndex(t, 40)
	ts := httptest.NewServer(newServer(ix).routes())
	defer ts.Close()

	object := func(id, x int) map[string]any {
		return map[string]any{"id": id, "region": map[string]any{"lo": []int{x, 100}, "hi": []int{x + 10, 110}}, "sample": map[string]any{"n": 10}}
	}
	check := func(what string) {
		t.Helper()
		if got := runtime.GOMAXPROCS(0); got != startup {
			t.Fatalf("after %s: GOMAXPROCS %d, want the startup value %d", what, got, startup)
		}
	}
	writes := []struct {
		name, path string
		body       any
		status     int
	}{
		{"an insert", "/v1/insert", object(7001, 100), http.StatusOK},
		{"a malformed insert", "/v1/insert", map[string]any{"id": 7002}, http.StatusBadRequest},
		{"a duplicate insert", "/v1/insert", object(7001, 300), http.StatusConflict},
		{"an unknown delete", "/v1/delete", map[string]any{"id": 99999}, http.StatusNotFound},
		{"a delete", "/v1/delete", map[string]any{"id": 7001}, http.StatusOK},
	}
	for _, w := range writes {
		if resp, out := postJSON(t, ts, w.path, w.body); resp.StatusCode != w.status {
			t.Fatalf("%s: status %d, want %d: %s", w.name, resp.StatusCode, w.status, out["error"])
		}
		check(w.name)
	}

	var wg sync.WaitGroup
	statuses := make([]int, 2)
	for g := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var objs []any
			for i := range 4 {
				objs = append(objs, object(8000+10*g+i, 100+200*g+40*i))
			}
			resp, _ := postJSON(t, ts, "/v1/insertbatch", map[string]any{"objects": objs})
			statuses[g] = resp.StatusCode
		}()
	}
	wg.Wait()
	if statuses[0] != http.StatusOK || statuses[1] != http.StatusOK {
		t.Fatalf("concurrent batches answered %v", statuses)
	}
	check("two concurrent batches")

	giveBack := writeProcs.lend() // a write in flight
	defer giveBack()
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Runtime struct {
			GoMaxProcs int `json:"gomaxprocs"`
		} `json:"runtime"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Runtime.GoMaxProcs != startup {
		t.Fatalf("/v1/stats reports gomaxprocs %d during a write, want the startup value %d", stats.Runtime.GoMaxProcs, startup)
	}
}
