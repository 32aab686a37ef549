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
	domain  pvoronoi.Rect // the indexed domain, for request validation
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
	return &server{ix: ix, domain: ix.DB().Domain, metrics: newMetrics()}
}

// newDurableServer serves a durable index; updates survive restarts.
func newDurableServer(d *pvoronoi.Durable) *server {
	s := newServer(d.Index)
	s.durable = d
	return s
}

// reply is a route's JSON answer; serve adds its latency_us.
type reply = map[string]any

// field is a set of request fields a route reads. validate checks exactly
// those; the body's other fields are decoded but neither checked nor used.
type field uint16

const (
	fPoint   field = 1 << iota // point: required, of the domain's dimension, finite
	fDomain                    // point must also lie in the domain (the octree covers no more)
	fK                         // k ≥ 1, 1 when absent
	fAgg                       // agg: "", sum or max, any case
	fPoints                    // points: non-empty, each valid
	fGroups                    // groups: non-empty, no group empty, each point valid
	fObject                    // the insert fields, one object
	fObjects                   // objects: non-empty, each a valid insert
	fIDs                       // ids: non-empty
)

// route is one table-driven endpoint.
type route struct {
	path  string
	post  bool // POST only (405 otherwise); other routes take any method, and a GET reads ?point=
	write bool // refused while degraded; a failure not mapped otherwise is the client's (400)
	reads field
	call  func(s *server, ctx context.Context, req *request) (reply, int, error) // reply, leaf I/O, error
}

// routeTable holds every query and write route; main.go's package comment
// documents their bodies. /v1/checkpoint, /v1/stats and the health probes
// are hand-written in routes: they carry the degraded-mode and admission
// logic no other route shares.
var routeTable = [...]route{
	{path: "/v1/query", reads: fPoint | fDomain, call: (*server).query},
	{path: "/v1/possiblenn", reads: fPoint | fDomain, call: (*server).possibleNN},
	{path: "/v1/possibleknn", reads: fPoint | fK, call: (*server).possibleKNN},
	{path: "/v1/possibleknnbatch", post: true, reads: fPoints | fK, call: (*server).possibleKNNBatch},
	{path: "/v1/possiblernn", reads: fPoint, call: (*server).possibleRNN},
	{path: "/v1/groupnn", reads: fPoints | fAgg, call: (*server).groupNN},
	{path: "/v1/groupnnbatch", post: true, reads: fGroups | fAgg, call: (*server).groupNNBatch},
	{path: "/v1/insert", post: true, write: true, reads: fObject, call: (*server).insert},
	{path: "/v1/delete", post: true, write: true, call: (*server).delete},
	{path: "/v1/insertbatch", post: true, write: true, reads: fObjects, call: (*server).insertBatch},
	{path: "/v1/deletebatch", post: true, write: true, reads: fIDs, call: (*server).deleteBatch},
}

// routes builds the HTTP handler: every routeTable entry through serve, the
// hand-written routes beside them, all behind the body bound, admission and
// the request deadline.
func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	for i := range routeTable {
		rt := &routeTable[i]
		mux.HandleFunc(rt.path, func(w http.ResponseWriter, r *http.Request) { s.serve(w, r, rt) })
	}
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

// serve is the one handler of every routeTable entry: method check →
// degraded-write refusal → decode and validate → call → metrics → status →
// reply with the call's latency. The metrics key is the path after /v1/.
func (s *server) serve(w http.ResponseWriter, r *http.Request, rt *route) {
	if rt.post && r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	if rt.write && s.refuseDegradedWrite(w) {
		return
	}
	req, err := s.decode(r, rt.reads)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	start := time.Now()
	rep, leafIO, err := s.call(r.Context(), rt, req)
	elapsed := time.Since(start)
	// A client that went away is no failure of the endpoint's.
	s.metrics.observe(rt.path[len("/v1/"):], elapsed, leafIO, err != nil && !errors.Is(err, context.Canceled))
	if err != nil {
		s.fail(w, err, rt.write)
		return
	}
	rep["latency_us"] = elapsed.Microseconds()
	writeJSON(w, http.StatusOK, rep)
}

// call runs a route's call, a write's with the spare P lent.
func (s *server) call(ctx context.Context, rt *route, req *request) (reply, int, error) {
	if rt.write {
		defer writeProcs.lend()()
	}
	return rt.call(s, ctx, req)
}

// spareP lends writes one P above the GOMAXPROCS the process runs with
// (main.go's package comment says why). The raise is counted across
// concurrent writes: the first raises, the last restores.
type spareP struct {
	mu    sync.Mutex
	held  int
	procs int // GOMAXPROCS before the first raise
}

// writeProcs is the process's one lender: GOMAXPROCS is process-wide.
var writeProcs spareP

// lend raises GOMAXPROCS by one unless a write already did; call the
// returned function to give the P back.
func (p *spareP) lend() (giveBack func()) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.held++; p.held == 1 {
		p.procs = runtime.GOMAXPROCS(0)
		runtime.GOMAXPROCS(p.procs + 1)
	}
	return func() {
		p.mu.Lock()
		defer p.mu.Unlock()
		if p.held--; p.held == 0 {
			runtime.GOMAXPROCS(p.procs)
		}
	}
}

// base is GOMAXPROCS without the spare P.
func (p *spareP) base() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.held > 0 {
		return p.procs
	}
	return runtime.GOMAXPROCS(0)
}

// fail answers a call's error. A WAL fail-stop puts the server in degraded
// mode (writes refused up front, reads served). A client that went away gets
// nginx's 499, not a timeout or a 5xx. Any other failure is the client's for
// a write (the index refused it) and the server's for a validated query.
func (s *server) fail(w http.ResponseWriter, err error, write bool) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, pvoronoi.ErrWAL):
		s.enterDegraded(err.Error())
		w.Header().Set("Retry-After", "10")
		status = http.StatusServiceUnavailable
	case errors.Is(err, uncertain.ErrDuplicateID):
		status = http.StatusConflict
	case errors.Is(err, uncertain.ErrUnknownID):
		status = http.StatusNotFound
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		status = 499
	case write:
		status = http.StatusBadRequest
	}
	writeError(w, status, err)
}

// request is every route's input, decoded once: the JSON body, or ?point=
// for a GET. validate fills k and agg from the fields a route reads; the
// insert routes' objs come from decodeInsert (insertbody.go), whose
// encoding/json path fills the insert fields; every other route decodes its
// body exactly as it always has, the insert fields' types checked too.
type request struct {
	insertRequest                    // /v1/insert; its ID is also /v1/delete's
	Point         pvoronoi.Point     `json:"point"`
	Points        []pvoronoi.Point   `json:"points"`
	Groups        [][]pvoronoi.Point `json:"groups"`
	K             *int               `json:"k"`
	Agg           string             `json:"agg"`
	IDs           []pvoronoi.ID      `json:"ids"`
	Objects       []insertRequest    `json:"objects"`

	k    int
	agg  pvoronoi.Agg
	objs []*pvoronoi.Object
}

type insertRequest struct {
	ID        pvoronoi.ID    `json:"id"`
	Region    regionJSON     `json:"region"`
	Instances []instanceJSON `json:"instances"`
	Sample    *sampleJSON    `json:"sample"`
}

type sampleJSON struct {
	Kind string `json:"kind"` // "uniform" (default) or "gaussian"
	N    int    `json:"n"`
	Seed int64  `json:"seed"`
}

// decode reads a request — ?point= for a GET, the JSON body for any other
// method, decodeInsert's for the insert routes — and validates the fields
// reads names.
func (s *server) decode(r *http.Request, reads field) (*request, error) {
	if reads&(fObject|fObjects) != 0 {
		return s.decodeInsert(r, reads)
	}
	req := &request{k: 1}
	if r.Method == http.MethodGet {
		if raw := r.URL.Query().Get("point"); raw != "" {
			parts := strings.Split(raw, ",")
			req.Point = make(pvoronoi.Point, len(parts))
			for i, part := range parts {
				v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
				if err != nil {
					return nil, fmt.Errorf("bad coordinate %q", part)
				}
				req.Point[i] = v
			}
		}
	} else if err := json.NewDecoder(r.Body).Decode(req); err != nil {
		return nil, fmt.Errorf("bad JSON body: %w", err)
	}
	return req, s.validate(req, reads)
}

// validate checks the fields reads names, once for every route.
func (s *server) validate(req *request, reads field) error {
	if reads&fPoint != 0 {
		if req.Point == nil {
			return errors.New("missing point")
		}
		if err := s.checkPoint(req.Point); err != nil {
			return err
		}
		if reads&fDomain != 0 && !s.domain.Contains(req.Point) {
			return fmt.Errorf("point %v outside the domain %v", req.Point, s.domain)
		}
	}
	if reads&fPoints != 0 {
		if err := s.checkPoints("points", req.Points); err != nil {
			return err
		}
	}
	if reads&fGroups != 0 {
		if len(req.Groups) == 0 {
			return errors.New("missing or empty groups")
		}
		for i, g := range req.Groups {
			if err := s.checkPoints("group", g); err != nil {
				return fmt.Errorf("groups[%d]: %w", i, err)
			}
		}
	}
	if reads&fK != 0 && req.K != nil {
		if *req.K < 1 {
			return fmt.Errorf("bad k %d (want k >= 1)", *req.K)
		}
		req.k = *req.K
	}
	if reads&fAgg != 0 {
		switch strings.ToLower(req.Agg) {
		case "", "sum":
			req.agg = pvoronoi.AggSum
		case "max":
			req.agg = pvoronoi.AggMax
		default:
			return fmt.Errorf("unknown agg %q (want sum or max)", req.Agg)
		}
	}
	if reads&fIDs != 0 && len(req.IDs) == 0 {
		return errors.New("missing or empty ids")
	}
	return nil
}

// checkPoint rejects points whose dimensionality doesn't match the indexed
// domain (the geometry layer assumes matching dims and would panic) and
// points with a NaN or infinite coordinate (the GET form's ParseFloat accepts
// both; every distance to such a point is unordered).
func (s *server) checkPoint(p pvoronoi.Point) error {
	if len(p) != s.domain.Dim() {
		return fmt.Errorf("point has %d coordinates, domain is %d-dimensional", len(p), s.domain.Dim())
	}
	if !p.IsFinite() {
		return fmt.Errorf("point %v has a non-finite coordinate", p)
	}
	return nil
}

// checkPoints checks a non-empty list of points; errors name the list.
func (s *server) checkPoints(name string, pts []pvoronoi.Point) error {
	if len(pts) == 0 {
		return fmt.Errorf("missing or empty %s", name)
	}
	for i, p := range pts {
		if err := s.checkPoint(p); err != nil {
			return fmt.Errorf("%s[%d]: %w", name, i, err)
		}
	}
	return nil
}

func (s *server) query(_ context.Context, req *request) (reply, int, error) {
	res, cost, err := s.ix.QueryWithCost(req.Point)
	return reply{"results": results(res), "candidates": cost.Candidates, "leaf_io": cost.LeafIO}, cost.LeafIO, err
}

func (s *server) possibleNN(_ context.Context, req *request) (reply, int, error) {
	cands, cost, err := s.ix.PossibleNNWithCost(req.Point)
	out := make([]candidateJSON, len(cands))
	for i, c := range cands {
		out[i] = candidateJSON{ID: uint32(c.ID), MinDist: c.MinDist, MaxDist: c.MaxDist}
	}
	return reply{"candidates": out, "leaf_io": cost.LeafIO}, cost.LeafIO, err
}

func (s *server) possibleKNN(_ context.Context, req *request) (reply, int, error) {
	res, cost, err := s.ix.PossibleKNNWithCost(req.Point, req.k)
	return extReply(reply{"results": results(res), "k": req.k}, cost, err)
}

func (s *server) possibleKNNBatch(ctx context.Context, req *request) (reply, int, error) {
	out, err := pvoronoi.Batch(ctx, req.Points, 0, func(q pvoronoi.Point) ([]resultJSON, error) {
		res, err := s.ix.PossibleKNN(q, req.k)
		return results(res), err
	})
	return reply{"results": out, "k": req.k, "count": len(out)}, 0, err
}

func (s *server) possibleRNN(_ context.Context, req *request) (reply, int, error) {
	ids, cost, err := s.ix.PossibleRNNWithCost(req.Point)
	out := make([]uint32, len(ids))
	for i, id := range ids {
		out[i] = uint32(id)
	}
	return extReply(reply{"ids": out}, cost, err)
}

func (s *server) groupNN(_ context.Context, req *request) (reply, int, error) {
	res, cost, err := s.ix.GroupNNWithCost(req.Points, req.agg)
	return extReply(reply{"results": results(res)}, cost, err)
}

func (s *server) groupNNBatch(ctx context.Context, req *request) (reply, int, error) {
	out, err := pvoronoi.Batch(ctx, req.Groups, 0, func(g []pvoronoi.Point) ([]resultJSON, error) {
		res, err := s.ix.GroupNN(g, req.agg)
		return results(res), err
	})
	return reply{"results": out, "count": len(out)}, 0, err
}

func (s *server) insert(_ context.Context, req *request) (reply, int, error) {
	sts, err := s.ix.InsertBatch(req.objs)
	return writeReply(req.ID, sts), 0, err
}

func (s *server) delete(_ context.Context, req *request) (reply, int, error) {
	sts, err := s.ix.DeleteBatch([]pvoronoi.ID{req.ID})
	return writeReply(req.ID, sts), 0, err
}

func (s *server) insertBatch(_ context.Context, req *request) (reply, int, error) {
	sts, err := s.ix.InsertBatch(req.objs)
	return batchReply(sts), 0, err
}

func (s *server) deleteBatch(_ context.Context, req *request) (reply, int, error) {
	sts, err := s.ix.DeleteBatch(req.IDs)
	return batchReply(sts), 0, err
}

// extReply adds an extension query's retrieval cost to its reply.
func extReply(rep reply, cost pvoronoi.ExtQueryCost, err error) (reply, int, error) {
	rep["candidates"] = cost.Candidates
	rep["node_io"] = cost.NodeIO
	rep["leaf_io"] = cost.LeafIO
	return rep, cost.LeafIO, err
}

// writeReply is a single insert's or delete's reply: its one op's counts.
func writeReply(id pvoronoi.ID, sts []pvoronoi.UpdateStats) reply {
	if len(sts) != 1 {
		return nil
	}
	return reply{"id": id, "affected": sts[0].Affected, "unchanged": sts[0].Unchanged, "examined": sts[0].Examined}
}

// batchReply sums a write batch's per-op stats into its reply: the counts
// and where the time went — SE and index maintenance, with refine_us the
// share of se_us the escalated re-runs of fat rows took (SE adds up worker
// time, so on several cores it can exceed its share of the wall clock).
func batchReply(sts []pvoronoi.UpdateStats) reply {
	var sum pvoronoi.UpdateStats
	for _, st := range sts {
		sum.Affected += st.Affected
		sum.Unchanged += st.Unchanged
		sum.Examined += st.Examined
		sum.SETime += st.SETime
		sum.IndexTime += st.IndexTime
		sum.SE.Refine.Time += st.SE.Refine.Time
	}
	return reply{
		"count":     len(sts),
		"affected":  sum.Affected,
		"unchanged": sum.Unchanged,
		"examined":  sum.Examined,
		"se_us":     sum.SETime.Microseconds(),
		"index_us":  sum.IndexTime.Microseconds(),
		"refine_us": sum.SE.Refine.Time.Microseconds(),
	}
}

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

// results converts query results (KNNResult is the same type) to the wire.
func results(res []pvoronoi.Result) []resultJSON {
	out := make([]resultJSON, len(res))
	for i, r := range res {
		out[i] = resultJSON{ID: uint32(r.ID), Prob: r.Prob}
	}
	return out
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

// degradedState reports whether the server is in read-only degraded mode
// and why. The explicit flag is set by the first write that hits a WAL
// fail-stop; the WAL health check also catches faults observed before any
// handler noticed.
func (s *server) degradedState() (degraded bool, cause string, since time.Time) {
	s.degMu.Lock()
	degraded, cause, since = s.degraded, s.degradedCause, s.degradedSince
	s.degMu.Unlock()
	if !degraded && s.durable != nil && !s.durable.WALHealthy() {
		return true, "write-ahead log unhealthy (pending checkpoint re-arm)", time.Time{}
	}
	return degraded, cause, since
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
	s.degraded, s.degradedCause, s.degradedSince = false, "", time.Time{}
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

// handleCheckpoint forces a durable snapshot (admin endpoint, POST only).
// Outside durable mode it reports 409: there is nowhere to persist to.
func (s *server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	if s.durable == nil {
		writeError(w, http.StatusConflict, errors.New("server is not running in durable mode (-data-dir)"))
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
	writeJSON(w, http.StatusOK, reply{
		"wal_seq":    st.Seq,
		"skipped":    st.Skipped,
		"latency_us": elapsed.Microseconds(),
	})
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	body := reply{"status": "ok"}
	if degraded, cause, since := s.degradedState(); degraded {
		body = reply{"status": "degraded", "cause": cause}
		if !since.IsZero() {
			body["since"] = since.UTC().Format(time.RFC3339)
		}
	}
	// 200 even when degraded: the process is alive and serving reads. A
	// liveness probe must not restart-loop a node that can still answer
	// queries; write routing keys on the status field.
	writeJSON(w, http.StatusOK, body)
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	endpoints, uptime := s.metrics.snapshot()
	io := s.ix.IO()
	mv := s.ix.MVCC()
	rc := s.ix.RefineCounters()
	status := "ok"
	degraded, cause, _ := s.degradedState()
	if degraded {
		status = "degraded"
	}
	body := reply{
		"status":   status,
		"uptime_s": uptime.Seconds(),
		"objects":  s.ix.Len(),
		"domain":   regionJSON{Lo: s.domain.Lo, Hi: s.domain.Hi},
		"io": map[string]int64{
			"reads":  io.Reads,
			"writes": io.Writes,
		},
		"mvcc": map[string]int64{
			"epoch":            int64(mv.Epoch),
			"inflight_readers": mv.InFlightReaders,
			"live_versions":    int64(mv.LiveVersions),
			"reclaimed":        mv.Reclaimed,
		},
		// Refinement lifetime counters.
		"refine": map[string]int64{
			"rows_refined":        rc.RowsRefined,
			"rows_unchanged":      rc.RowsUnchanged,
			"refine_budget_spent": rc.BudgetSpent,
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
		"gomaxprocs":       writeProcs.base(),
	}
}
