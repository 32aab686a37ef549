package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"pvoronoi"
	"pvoronoi/internal/uncertain"
)

// server wires a shared PV-index to the HTTP API. Every query handler runs
// on the request's own goroutine: net/http gives us one goroutine per
// request, and the index's MVCC read path lets them all evaluate in
// parallel — each pins an immutable snapshot version lock-free — while
// insert/delete requests serialize as writers without ever stalling reads.
type server struct {
	ix      *pvoronoi.Index
	dim     int // domain dimensionality, for request validation
	metrics *metrics
	// durable is non-nil in -data-dir mode: updates are WAL-logged, and
	// /v1/checkpoint snapshots on demand.
	durable *pvoronoi.Durable

	// reqTimeout bounds each request's context (0 = no deadline); it
	// propagates into the batch query worker pools, so one slow batch
	// cannot occupy the pool forever.
	reqTimeout time.Duration
	// maxInflight bounds admitted requests (0 = unlimited). Beyond the
	// bound the server sheds load with 503 instead of piling up goroutines;
	// health and stats endpoints are exempt so operators can always look.
	maxInflight int
	inflight    chan struct{}

	// Degraded mode: after a storage fail-stop (WAL append/fsync failure,
	// disk full) the server keeps answering reads off the last published
	// MVCC version but refuses writes with 503 until a successful
	// /v1/checkpoint proves the write path healthy again.
	degMu         sync.Mutex
	degraded      bool
	degradedCause string
	degradedSince time.Time
}

func newServer(ix *pvoronoi.Index) *server {
	return &server{ix: ix, dim: ix.DB().Domain.Dim(), metrics: newMetrics()}
}

// newDurableServer serves a durable index; updates survive restarts.
func newDurableServer(d *pvoronoi.Durable) *server {
	s := newServer(d.Index)
	s.durable = d
	return s
}

// checkPoint rejects points whose dimensionality doesn't match the indexed
// domain (the geometry layer assumes matching dims and would panic) and
// points with a NaN or infinite coordinate (the GET form's ParseFloat accepts
// both; every distance to such a point is unordered).
func (s *server) checkPoint(p pvoronoi.Point) error {
	if len(p) != s.dim {
		return fmt.Errorf("point has %d coordinates, domain is %d-dimensional", len(p), s.dim)
	}
	if !p.IsFinite() {
		return fmt.Errorf("point %v has a non-finite coordinate", p)
	}
	return nil
}

// readPoint decodes the request body and its query point, validating the
// point's dimensionality. On failure it writes the 400 response itself and
// returns ok=false.
func (s *server) readPoint(w http.ResponseWriter, r *http.Request) (pvoronoi.Point, map[string]json.RawMessage, bool) {
	body, err := decodeBody(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return nil, nil, false
	}
	q, err := decodePoint(r, body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return nil, nil, false
	}
	if err := s.checkPoint(q); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return nil, nil, false
	}
	return q, body, true
}

// routes builds the HTTP handler. API summary (all bodies JSON):
//
//	POST /v1/query            {"point":[...], "eps":0}    full PNNQ (eps>0: verified mode)
//	POST /v1/possiblenn       {"point":[...]}             PNNQ Step 1 only
//	POST /v1/possibleknn      {"point":[...], "k":3}      probabilistic k-NN membership
//	POST /v1/possibleknnbatch {"points":[[...],...], "k":3}  one worker-pool batch
//	POST /v1/possiblernn      {"point":[...]}             reverse-NN candidates
//	POST /v1/groupnn          {"points":[[...],...], "agg":"sum"|"max"}  group NN
//	POST /v1/groupnnbatch     {"groups":[[[...],...],...], "agg":"sum"|"max"}  one worker-pool batch
//	POST /v1/insert           {"id":1, "region":{"lo":[...],"hi":[...]}, "instances":[...]} or {"sample":{"kind":"uniform","n":100,"seed":1}}
//	POST /v1/delete           {"id":1}
//	POST /v1/insertbatch      {"objects":[{insert request}, ...]}   one group commit
//	POST /v1/deletebatch      {"ids":[1,2,...]}                     one group commit
//	POST /v1/checkpoint                              force a durable snapshot (durable mode); re-arms writes after a storage fault
//	GET  /v1/stats                                   serving metrics + index shape + health status
//	GET  /v1/healthz                                 health probe: {"status":"ok"} or {"status":"degraded","cause":...}
//	GET  /healthz                                    same (legacy path)
//
// /v1/query, /v1/possiblenn and /v1/possiblernn also accept GET with
// ?point=x,y,... for curl-friendly exploration.
//
// When the durable write path fail-stops (disk full, fsync error), the
// server degrades instead of dying: reads keep serving the last published
// MVCC version, writes return 503 with Retry-After, and a successful
// /v1/checkpoint (after the operator clears the fault) re-arms writes.
func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/query", s.handleQuery)
	mux.HandleFunc("/v1/possiblenn", s.handlePossibleNN)
	mux.HandleFunc("/v1/possibleknn", s.handlePossibleKNN)
	mux.HandleFunc("/v1/possibleknnbatch", s.handlePossibleKNNBatch)
	mux.HandleFunc("/v1/possiblernn", s.handlePossibleRNN)
	mux.HandleFunc("/v1/groupnn", s.handleGroupNN)
	mux.HandleFunc("/v1/groupnnbatch", s.handleGroupNNBatch)
	mux.HandleFunc("/v1/insert", s.handleInsert)
	mux.HandleFunc("/v1/delete", s.handleDelete)
	mux.HandleFunc("/v1/insertbatch", s.handleInsertBatch)
	mux.HandleFunc("/v1/deletebatch", s.handleDeleteBatch)
	mux.HandleFunc("/v1/checkpoint", s.handleCheckpoint)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/v1/healthz", s.handleHealthz)
	mux.HandleFunc("/healthz", s.handleHealthz)
	if s.maxInflight > 0 {
		s.inflight = make(chan struct{}, s.maxInflight)
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Every body is bounded before any handler decodes it; the decode
		// error of an oversized one reaches writeError, which answers 413.
		r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
		switch r.URL.Path {
		case "/healthz", "/v1/healthz", "/v1/stats":
			// Always reachable: an operator diagnosing an overloaded or
			// degraded server must not be shed with it.
			mux.ServeHTTP(w, r)
			return
		}
		if s.inflight != nil {
			select {
			case s.inflight <- struct{}{}:
				defer func() { <-s.inflight }()
			default:
				w.Header().Set("Retry-After", "1")
				writeError(w, http.StatusServiceUnavailable,
					fmt.Errorf("server at capacity (%d requests in flight)", s.maxInflight))
				return
			}
		}
		if s.reqTimeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), s.reqTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		mux.ServeHTTP(w, r)
	})
}

// --- degraded mode -------------------------------------------------------

// degradedState reports whether the server is in read-only degraded mode
// and why. The explicit flag is set by the first write that hits a WAL
// fail-stop; the WAL health check also catches faults observed before any
// handler noticed.
func (s *server) degradedState() (degraded bool, cause string, since time.Time) {
	s.degMu.Lock()
	degraded, cause, since = s.degraded, s.degradedCause, s.degradedSince
	s.degMu.Unlock()
	if degraded {
		return degraded, cause, since
	}
	if s.durable != nil && !s.durable.WALHealthy() {
		return true, "write-ahead log unhealthy (pending checkpoint re-arm)", time.Time{}
	}
	return false, "", time.Time{}
}

func (s *server) enterDegraded(cause string) {
	s.degMu.Lock()
	defer s.degMu.Unlock()
	if !s.degraded {
		s.degraded = true
		s.degradedCause = cause
		s.degradedSince = time.Now()
	}
}

func (s *server) exitDegraded() {
	s.degMu.Lock()
	s.degraded = false
	s.degradedCause = ""
	s.degradedSince = time.Time{}
	s.degMu.Unlock()
}

// refuseDegradedWrite sheds a write request while degraded: 503 with a
// Retry-After hint, reads unaffected. Returns true when the request was
// handled (refused).
func (s *server) refuseDegradedWrite(w http.ResponseWriter) bool {
	degraded, cause, _ := s.degradedState()
	if !degraded {
		return false
	}
	w.Header().Set("Retry-After", "10")
	writeError(w, http.StatusServiceUnavailable,
		fmt.Errorf("degraded mode (%s): writes disabled until a successful checkpoint re-arms the write path", cause))
	return true
}

// failUpdate writes an update error response. A WAL fail-stop flips the
// server into degraded mode — subsequent writes are refused up front while
// reads keep serving the last published version.
func (s *server) failUpdate(w http.ResponseWriter, err error) {
	if errors.Is(err, pvoronoi.ErrWAL) {
		s.enterDegraded(err.Error())
		w.Header().Set("Retry-After", "10")
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	writeError(w, updateStatus(err), err)
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	degraded, cause, since := s.degradedState()
	if !degraded {
		writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
		return
	}
	body := map[string]any{
		"status": "degraded",
		"cause":  cause,
	}
	if !since.IsZero() {
		body["since"] = since.UTC().Format(time.RFC3339)
	}
	// 200: the process is alive and serving reads — degraded, not dead. A
	// liveness probe must not restart-loop a node that can still answer
	// queries; write routing keys on the status field.
	writeJSON(w, http.StatusOK, body)
}

// --- JSON wire types -----------------------------------------------------

type regionJSON struct {
	Lo []float64 `json:"lo"`
	Hi []float64 `json:"hi"`
}

type instanceJSON struct {
	Pos  []float64 `json:"pos"`
	Prob float64   `json:"prob"`
}

type resultJSON struct {
	ID   uint32  `json:"id"`
	Prob float64 `json:"prob"`
}

type candidateJSON struct {
	ID      uint32  `json:"id"`
	MinDist float64 `json:"min_dist"`
	MaxDist float64 `json:"max_dist"`
}

type errorJSON struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// maxBodyBytes bounds every request body. An insert batch of 16 objects with
// 100 instances each is about 100 KB; nothing legitimate comes near 32 MiB,
// and without a bound one request's array is decoded whole before validation.
const maxBodyBytes = 32 << 20

func writeError(w http.ResponseWriter, status int, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		status = http.StatusRequestEntityTooLarge
	}
	writeJSON(w, status, errorJSON{Error: err.Error()})
}

// decodePoint reads a query point from the JSON body (POST) or the ?point=
// parameter (GET).
func decodePoint(r *http.Request, body map[string]json.RawMessage) (pvoronoi.Point, error) {
	if r.Method == http.MethodGet {
		raw := r.URL.Query().Get("point")
		if raw == "" {
			return nil, fmt.Errorf("missing point parameter")
		}
		parts := strings.Split(raw, ",")
		p := make(pvoronoi.Point, len(parts))
		for i, part := range parts {
			v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
			if err != nil {
				return nil, fmt.Errorf("bad coordinate %q", part)
			}
			p[i] = v
		}
		return p, nil
	}
	raw, ok := body["point"]
	if !ok {
		return nil, fmt.Errorf("missing point field")
	}
	var p []float64
	if err := json.Unmarshal(raw, &p); err != nil {
		return nil, fmt.Errorf("bad point: %v", err)
	}
	return pvoronoi.Point(p), nil
}

// decodeBody parses a JSON object body into raw fields (empty map for GET).
func decodeBody(r *http.Request) (map[string]json.RawMessage, error) {
	if r.Method == http.MethodGet {
		return map[string]json.RawMessage{}, nil
	}
	body := make(map[string]json.RawMessage)
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		return nil, fmt.Errorf("bad JSON body: %w", err)
	}
	return body, nil
}

// --- query handlers ------------------------------------------------------

func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	q, body, ok := s.readPoint(w, r)
	if !ok {
		return
	}
	var eps float64
	if raw, ok := body["eps"]; ok {
		if err := json.Unmarshal(raw, &eps); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad eps: %v", err))
			return
		}
	}

	start := time.Now()
	var (
		results []pvoronoi.Result
		cost    pvoronoi.QueryCost
		err     error
	)
	if eps > 0 {
		results, cost, err = s.ix.QueryVerifiedWithCost(q, eps)
	} else {
		results, cost, err = s.ix.QueryWithCost(q)
	}
	elapsed := time.Since(start)
	s.metrics.observe("query", elapsed, cost.LeafIO, err != nil)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	out := make([]resultJSON, len(results))
	for i, res := range results {
		out[i] = resultJSON{ID: uint32(res.ID), Prob: res.Prob}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"results":      out,
		"candidates":   cost.Candidates,
		"leaf_io":      cost.LeafIO,
		"cache_hits":   cost.CacheHits,
		"cache_misses": cost.CacheMisses,
		"latency_us":   elapsed.Microseconds(),
	})
}

func (s *server) handlePossibleNN(w http.ResponseWriter, r *http.Request) {
	q, _, ok := s.readPoint(w, r)
	if !ok {
		return
	}

	start := time.Now()
	cands, cost, err := s.ix.PossibleNNWithCost(q)
	elapsed := time.Since(start)
	s.metrics.observe("possiblenn", elapsed, cost.LeafIO, err != nil)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	out := make([]candidateJSON, len(cands))
	for i, c := range cands {
		out[i] = candidateJSON{ID: uint32(c.ID), MinDist: c.MinDist, MaxDist: c.MaxDist}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"candidates": out,
		"leaf_io":    cost.LeafIO,
		"latency_us": elapsed.Microseconds(),
	})
}

// extCostFields appends an extension query's retrieval-cost breakdown to a
// response body.
func extCostFields(body map[string]any, cost pvoronoi.ExtQueryCost) map[string]any {
	body["candidates"] = cost.Candidates
	body["node_io"] = cost.NodeIO
	body["leaf_io"] = cost.LeafIO
	body["cache_hits"] = cost.CacheHits
	body["cache_misses"] = cost.CacheMisses
	return body
}

// decodeK reads the optional "k" field (default 1, must be >= 1). On failure
// it writes the 400 response itself and returns ok=false.
func decodeK(w http.ResponseWriter, body map[string]json.RawMessage) (int, bool) {
	k := 1
	if raw, ok := body["k"]; ok {
		if err := json.Unmarshal(raw, &k); err != nil || k < 1 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad k"))
			return 0, false
		}
	}
	return k, true
}

func (s *server) handlePossibleKNN(w http.ResponseWriter, r *http.Request) {
	q, body, ok := s.readPoint(w, r)
	if !ok {
		return
	}
	k, ok := decodeK(w, body)
	if !ok {
		return
	}

	start := time.Now()
	results, cost, err := s.ix.PossibleKNNWithCost(q, k)
	elapsed := time.Since(start)
	s.metrics.observe("possibleknn", elapsed, cost.LeafIO, err != nil)
	if err != nil {
		// The request was validated; a failing query is a server-side fault.
		writeError(w, http.StatusInternalServerError, err)
		return
	}

	out := make([]resultJSON, len(results))
	for i, res := range results {
		out[i] = resultJSON{ID: uint32(res.ID), Prob: res.Prob}
	}
	writeJSON(w, http.StatusOK, extCostFields(map[string]any{
		"results":    out,
		"k":          k,
		"latency_us": elapsed.Microseconds(),
	}, cost))
}

// handlePossibleKNNBatch evaluates possible k-NN for a whole set of points
// through the index's worker pool: {"points":[[...],...], "k":3}.
func (s *server) handlePossibleKNNBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
		return
	}
	body, err := decodeBody(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	points, ok := s.decodePoints(w, body, "points")
	if !ok {
		return
	}
	k, ok := decodeK(w, body)
	if !ok {
		return
	}

	start := time.Now()
	results, err := s.ix.PossibleKNNBatchCtx(r.Context(), points, k, 0)
	elapsed := time.Since(start)
	s.metrics.observe("possibleknnbatch", elapsed, 0, serverFault(err))
	if err != nil {
		writeError(w, batchQueryStatus(err), err)
		return
	}

	out := make([][]resultJSON, len(results))
	for i, res := range results {
		out[i] = make([]resultJSON, len(res))
		for j, kr := range res {
			out[i][j] = resultJSON{ID: uint32(kr.ID), Prob: kr.Prob}
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"results":    out,
		"k":          k,
		"count":      len(out),
		"latency_us": elapsed.Microseconds(),
	})
}

// handlePossibleRNN returns the reverse-NN candidate set of a point:
// the objects with a non-zero chance that the point is their nearest
// neighbor.
func (s *server) handlePossibleRNN(w http.ResponseWriter, r *http.Request) {
	q, _, ok := s.readPoint(w, r)
	if !ok {
		return
	}

	start := time.Now()
	ids, cost, err := s.ix.PossibleRNNWithCost(q)
	elapsed := time.Since(start)
	s.metrics.observe("possiblernn", elapsed, cost.LeafIO, err != nil)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}

	out := make([]uint32, len(ids))
	for i, id := range ids {
		out[i] = uint32(id)
	}
	writeJSON(w, http.StatusOK, extCostFields(map[string]any{
		"ids":        out,
		"latency_us": elapsed.Microseconds(),
	}, cost))
}

// validatePoints converts and dim-validates a list of raw points; label
// prefixes the per-point error position (e.g. "points" -> "points[2]: ...").
func (s *server) validatePoints(pts [][]float64, label string) ([]pvoronoi.Point, error) {
	out := make([]pvoronoi.Point, len(pts))
	for i, p := range pts {
		out[i] = pvoronoi.Point(p)
		if err := s.checkPoint(out[i]); err != nil {
			return nil, fmt.Errorf("%s[%d]: %w", label, i, err)
		}
	}
	return out, nil
}

// decodePoints reads and dim-validates an array-of-points field. On failure
// it writes the 400 response itself and returns ok=false.
func (s *server) decodePoints(w http.ResponseWriter, body map[string]json.RawMessage, field string) ([]pvoronoi.Point, bool) {
	var pts [][]float64
	if raw, ok := body[field]; ok {
		if err := json.Unmarshal(raw, &pts); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad %s: %v", field, err))
			return nil, false
		}
	}
	if len(pts) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("missing %s field", field))
		return nil, false
	}
	out, err := s.validatePoints(pts, field)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return nil, false
	}
	return out, true
}

// decodeAgg reads the optional "agg" field ("sum" default, or "max"). On
// failure it writes the 400 response itself and returns ok=false.
func decodeAgg(w http.ResponseWriter, body map[string]json.RawMessage) (pvoronoi.Agg, bool) {
	agg := pvoronoi.AggSum
	if raw, ok := body["agg"]; ok {
		var name string
		if err := json.Unmarshal(raw, &name); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad agg: %v", err))
			return agg, false
		}
		switch strings.ToLower(name) {
		case "sum", "":
			agg = pvoronoi.AggSum
		case "max":
			agg = pvoronoi.AggMax
		default:
			writeError(w, http.StatusBadRequest, fmt.Errorf("unknown agg %q (want sum or max)", name))
			return agg, false
		}
	}
	return agg, true
}

func (s *server) handleGroupNN(w http.ResponseWriter, r *http.Request) {
	body, err := decodeBody(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	group, ok := s.decodePoints(w, body, "points")
	if !ok {
		return
	}
	agg, ok := decodeAgg(w, body)
	if !ok {
		return
	}

	start := time.Now()
	results, cost, err := s.ix.GroupNNWithCost(group, agg)
	elapsed := time.Since(start)
	s.metrics.observe("groupnn", elapsed, cost.LeafIO, err != nil)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}

	out := make([]resultJSON, len(results))
	for i, res := range results {
		out[i] = resultJSON{ID: uint32(res.ID), Prob: res.Prob}
	}
	writeJSON(w, http.StatusOK, extCostFields(map[string]any{
		"results":    out,
		"latency_us": elapsed.Microseconds(),
	}, cost))
}

// handleGroupNNBatch evaluates group NN for a whole set of groups through
// the index's worker pool: {"groups":[[[...],...],...], "agg":"sum"}.
func (s *server) handleGroupNNBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
		return
	}
	body, err := decodeBody(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var raw [][][]float64
	if rawGroups, ok := body["groups"]; ok {
		if err := json.Unmarshal(rawGroups, &raw); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad groups: %v", err))
			return
		}
	}
	if len(raw) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("missing groups field"))
		return
	}
	groups := make([][]pvoronoi.Point, len(raw))
	for i, g := range raw {
		if len(g) == 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("groups[%d]: empty group", i))
			return
		}
		pts, err := s.validatePoints(g, fmt.Sprintf("groups[%d]", i))
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		groups[i] = pts
	}
	agg, ok := decodeAgg(w, body)
	if !ok {
		return
	}

	start := time.Now()
	results, err := s.ix.GroupNNBatchCtx(r.Context(), groups, agg, 0)
	elapsed := time.Since(start)
	s.metrics.observe("groupnnbatch", elapsed, 0, serverFault(err))
	if err != nil {
		writeError(w, batchQueryStatus(err), err)
		return
	}

	out := make([][]resultJSON, len(results))
	for i, res := range results {
		out[i] = make([]resultJSON, len(res))
		for j, gr := range res {
			out[i][j] = resultJSON{ID: uint32(gr.ID), Prob: gr.Prob}
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"results":    out,
		"count":      len(out),
		"latency_us": elapsed.Microseconds(),
	})
}

// --- update handlers -----------------------------------------------------

type insertRequest struct {
	ID        uint32         `json:"id"`
	Region    regionJSON     `json:"region"`
	Instances []instanceJSON `json:"instances"`
	Sample    *struct {
		Kind string `json:"kind"` // "uniform" (default) or "gaussian"
		N    int    `json:"n"`
		Seed int64  `json:"seed"`
	} `json:"sample"`
}

// maxSampleN caps insertRequest.Sample.N: the server draws that many
// instances before the index sees the object, so the bound has to be here.
// The paper's pdfs have 500 samples.
const maxSampleN = 10000

// toObject validates an insert request and builds the object it describes.
func (req *insertRequest) toObject() (*pvoronoi.Object, error) {
	if len(req.Region.Lo) == 0 || len(req.Region.Lo) != len(req.Region.Hi) {
		return nil, fmt.Errorf("region needs matching lo/hi")
	}
	for i := range req.Region.Lo {
		if req.Region.Lo[i] > req.Region.Hi[i] {
			return nil, fmt.Errorf("inverted region in dim %d", i)
		}
	}
	region := pvoronoi.NewRect(pvoronoi.Point(req.Region.Lo), pvoronoi.Point(req.Region.Hi))

	o := &pvoronoi.Object{ID: pvoronoi.ID(req.ID), Region: region}
	switch {
	case len(req.Instances) > 0:
		o.Instances = make([]pvoronoi.Instance, len(req.Instances))
		for i, in := range req.Instances {
			o.Instances[i] = pvoronoi.Instance{Pos: pvoronoi.Point(in.Pos), Prob: in.Prob}
		}
		if err := o.Validate(); err != nil {
			return nil, err
		}
	case req.Sample != nil:
		n := req.Sample.N
		if n <= 0 {
			n = 100
		}
		if n > maxSampleN {
			return nil, fmt.Errorf("sample.n %d exceeds the limit of %d", n, maxSampleN)
		}
		if strings.EqualFold(req.Sample.Kind, "gaussian") {
			o.Instances = pvoronoi.SampleGaussian(region, n, req.Sample.Seed)
		} else {
			o.Instances = pvoronoi.SampleUniform(region, n, req.Sample.Seed)
		}
	}
	return o, nil
}

func (s *server) handleInsert(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
		return
	}
	if s.refuseDegradedWrite(w) {
		return
	}
	var req insertRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad JSON body: %w", err))
		return
	}
	o, err := req.toObject()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	start := time.Now()
	st, err := s.ix.InsertWithStats(o)
	elapsed := time.Since(start)
	s.metrics.observe("insert", elapsed, 0, err != nil)
	if err != nil {
		s.failUpdate(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"id":         req.ID,
		"affected":   st.Affected,
		"unchanged":  st.Unchanged,
		"examined":   st.Examined,
		"latency_us": elapsed.Microseconds(),
	})
}

func (s *server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
		return
	}
	if s.refuseDegradedWrite(w) {
		return
	}
	var req struct {
		ID uint32 `json:"id"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad JSON body: %w", err))
		return
	}

	start := time.Now()
	st, err := s.ix.DeleteWithStats(pvoronoi.ID(req.ID))
	elapsed := time.Since(start)
	s.metrics.observe("delete", elapsed, 0, err != nil)
	if err != nil {
		s.failUpdate(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"id":         req.ID,
		"affected":   st.Affected,
		"unchanged":  st.Unchanged,
		"examined":   st.Examined,
		"latency_us": elapsed.Microseconds(),
	})
}

// handleInsertBatch applies a whole set of inserts as one group commit:
// {"objects":[{insert request}, ...]}. One write-lock acquisition and (in
// durable mode) one WAL fsync cover the entire batch.
func (s *server) handleInsertBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
		return
	}
	if s.refuseDegradedWrite(w) {
		return
	}
	var req struct {
		Objects []insertRequest `json:"objects"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad JSON body: %w", err))
		return
	}
	if len(req.Objects) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("missing objects field"))
		return
	}
	objs := make([]*pvoronoi.Object, len(req.Objects))
	for i := range req.Objects {
		o, err := req.Objects[i].toObject()
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("objects[%d]: %w", i, err))
			return
		}
		objs[i] = o
	}

	start := time.Now()
	sts, err := s.ix.InsertBatch(objs)
	elapsed := time.Since(start)
	s.metrics.observe("insertbatch", elapsed, 0, err != nil)
	if err != nil {
		s.failUpdate(w, err)
		return
	}
	writeJSON(w, http.StatusOK, batchReply(sts, elapsed))
}

// handleDeleteBatch removes a whole set of IDs as one group commit:
// {"ids":[1,2,...]}.
func (s *server) handleDeleteBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
		return
	}
	if s.refuseDegradedWrite(w) {
		return
	}
	var req struct {
		IDs []uint32 `json:"ids"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad JSON body: %w", err))
		return
	}
	if len(req.IDs) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("missing ids field"))
		return
	}
	ids := make([]pvoronoi.ID, len(req.IDs))
	for i, id := range req.IDs {
		ids[i] = pvoronoi.ID(id)
	}

	start := time.Now()
	sts, err := s.ix.DeleteBatch(ids)
	elapsed := time.Since(start)
	s.metrics.observe("deletebatch", elapsed, 0, err != nil)
	if err != nil {
		s.failUpdate(w, err)
		return
	}
	writeJSON(w, http.StatusOK, batchReply(sts, elapsed))
}

// handleCheckpoint forces a durable snapshot (admin endpoint, POST only).
// Outside durable mode it reports 409: there is nowhere to persist to.
func (s *server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
		return
	}
	if s.durable == nil {
		writeError(w, http.StatusConflict, fmt.Errorf("server is not running in durable mode (-data-dir)"))
		return
	}
	start := time.Now()
	st, err := s.durable.Checkpoint()
	elapsed := time.Since(start)
	s.metrics.observe("checkpoint", elapsed, 0, err != nil)
	if err != nil {
		// A checkpoint that cannot complete while the WAL is unhealthy
		// keeps (or puts) the server in degraded mode.
		if !s.durable.WALHealthy() {
			s.enterDegraded(err.Error())
		}
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	// A completed checkpoint proves the whole write path — snapshot files,
	// directory syncs, WAL append — works again: re-arm writes.
	if s.durable.WALHealthy() {
		s.exitDegraded()
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"wal_seq":    st.Seq,
		"skipped":    st.Skipped,
		"latency_us": elapsed.Microseconds(),
	})
}

// updateStatus maps an update-path error to its HTTP status: conflict for
// duplicate IDs, not-found for unknown IDs, service-unavailable for
// server-side durability faults (WAL I/O — transient from the client's view:
// retry after the operator re-arms), bad-request otherwise.
func updateStatus(err error) int {
	switch {
	case errors.Is(err, pvoronoi.ErrWAL):
		return http.StatusServiceUnavailable
	case errors.Is(err, uncertain.ErrDuplicateID):
		return http.StatusConflict
	case errors.Is(err, uncertain.ErrUnknownID):
		return http.StatusNotFound
	default:
		return http.StatusBadRequest
	}
}

// statusClientClosedRequest is nginx's non-standard 499: the client went
// away before the response was produced. Nothing failed server-side, so it
// must not masquerade as a timeout or a 5xx in logs and metrics.
const statusClientClosedRequest = 499

// batchQueryStatus maps a batch query failure: a server-imposed request
// deadline that expired mid-batch is a timeout (504), a client that
// disconnected mid-batch is its own abort (499), anything else is a
// server-side fault.
func batchQueryStatus(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return statusClientClosedRequest
	default:
		return http.StatusInternalServerError
	}
}

// serverFault reports whether a batch query error should count as a server
// failure in metrics — client cancellation is not one.
func serverFault(err error) bool {
	return err != nil && !errors.Is(err, context.Canceled)
}

// batchReply sums a write batch's per-op stats into its reply: the counts,
// the handler's wall time, and where that time went — SE, index maintenance,
// adjacency patch, refinement (SE and refinement add up worker time, so on
// several cores they can exceed their share of the wall clock).
func batchReply(sts []pvoronoi.UpdateStats, elapsed time.Duration) map[string]any {
	var sum pvoronoi.UpdateStats
	for _, st := range sts {
		sum.Affected += st.Affected
		sum.Unchanged += st.Unchanged
		sum.Examined += st.Examined
		sum.SETime += st.SETime
		sum.IndexTime += st.IndexTime
		sum.AdjTime += st.AdjTime
		sum.SE.Refine.Time += st.SE.Refine.Time
	}
	return map[string]any{
		"count":        len(sts),
		"affected":     sum.Affected,
		"unchanged":    sum.Unchanged,
		"examined":     sum.Examined,
		"latency_us":   elapsed.Microseconds(),
		"se_us":        sum.SETime.Microseconds(),
		"index_us":     sum.IndexTime.Microseconds(),
		"adjacency_us": sum.AdjTime.Microseconds(),
		"refine_us":    sum.SE.Refine.Time.Microseconds(),
	}
}

// --- stats ---------------------------------------------------------------

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	endpoints, uptime := s.metrics.snapshot()
	io := s.ix.IO()
	rc := s.ix.RecordCache()
	mv := s.ix.MVCC()
	adj := s.ix.Adjacency()
	domain := s.ix.DB().Domain // immutable per version; safe without a lock
	status := "ok"
	degraded, cause, _ := s.degradedState()
	if degraded {
		status = "degraded"
	}
	body := map[string]any{
		"status":   status,
		"uptime_s": uptime.Seconds(),
		"objects":  s.ix.Len(),
		"domain": regionJSON{
			Lo: []float64(domain.Lo),
			Hi: []float64(domain.Hi),
		},
		"io": map[string]int64{
			"reads":  io.Reads,
			"writes": io.Writes,
		},
		"record_cache": map[string]int64{
			"hits":     rc.Hits,
			"misses":   rc.Misses,
			"resident": int64(rc.Resident),
			"capacity": int64(rc.Capacity),
		},
		"mvcc": map[string]int64{
			"epoch":            int64(mv.Epoch),
			"inflight_readers": mv.InFlightReaders,
			"live_versions":    int64(mv.LiveVersions),
			"reclaimed":        mv.Reclaimed,
		},
		"adjacency": map[string]any{
			"rows":            int64(adj.Rows),
			"edges":           int64(adj.Edges),
			"rows_recomputed": adj.RowsRecomputed,
			"rows_patched":    adj.RowsPatched,
			"rows_deleted":    adj.RowsDeleted,
			// Hub shape: degree and stored-UBR volume distributions over the
			// current rows — what the refinement budget targets.
			"degree_p50":  int64(adj.DegreeP50),
			"degree_p90":  int64(adj.DegreeP90),
			"degree_max":  int64(adj.DegreeMax),
			"ubr_vol_p50": adj.UBRVolP50,
			"ubr_vol_p90": adj.UBRVolP90,
			"ubr_vol_max": adj.UBRVolMax,
			// Refinement lifetime counters.
			"rows_refined":        adj.RowsRefined,
			"clip_passes":         adj.ClipPasses,
			"refine_budget_spent": adj.RefineBudgetSpent,
		},
		"endpoints": endpoints,
		"runtime":   runtimeStats(),
	}
	if degraded {
		body["degraded_cause"] = cause
	}
	if s.durable != nil {
		ds := s.durable.Stats()
		body["durable"] = map[string]any{
			"wal_seq":        ds.WALSeq,
			"wal_appends":    ds.WALAppends,
			"wal_commits":    ds.WALCommits,
			"wal_syncs":      ds.WALSyncs,
			"wal_bytes":      ds.WALBytes,
			"wal_segments":   ds.WALSegments,
			"wal_healthy":    ds.WALHealthy,
			"checkpoint_seq": ds.CheckpointSeq,
			"store_epoch":    ds.StoreEpoch,
		}
	}
	writeJSON(w, http.StatusOK, body)
}

// runtimeStats reports the Go runtime's memory and GC behavior — enough for
// an operator to see heap growth and GC pressure without attaching pprof.
func runtimeStats() map[string]any {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return map[string]any{
		"heap_alloc_bytes": ms.HeapAlloc,
		"heap_objects":     ms.HeapObjects,
		"num_gc":           ms.NumGC,
		"gc_pause_total_s": float64(ms.PauseTotalNs) / 1e9,
		"gomaxprocs":       runtime.GOMAXPROCS(0),
	}
}
