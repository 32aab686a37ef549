package main

import (
	"fmt"
	"path/filepath"
	"time"

	"pvoronoi/internal/dataset"
	"pvoronoi/internal/geom"
	"pvoronoi/internal/uncertain"
)

// metric is one measured value. Win is set when the value is the quiet
// decile of per-window values (see quietShare); Samples is how many raw
// samples it rests on.
type metric struct {
	Name    string    `json:"name"`
	Unit    string    `json:"unit"`
	Value   float64   `json:"value"`
	Samples int       `json:"samples"`
	Win     *windowed `json:"windows,omitempty"`
}

func single(name, unit string, v float64) metric {
	return metric{Name: name, Unit: unit, Value: v, Samples: 1}
}

// fromWindows reports a timing measured once per window. Throughputs are
// the only higher-is-better windowed values the harness has.
func fromWindows(name, unit string, values []float64, samples int, higherBetter bool) metric {
	w := summarize(values, higherBetter)
	return metric{Name: name, Unit: unit, Value: w.Value, Samples: samples, Win: &w}
}

// quantileMetric reports the p-quantile of latencies that arrive grouped by
// window: the quiet decile of the per-window quantiles when every window
// has minTail samples beyond it, else the quantile of the whole run
// (with no window spread to show).
func quantileMetric(name, unit string, byWindow [][]float64, p float64) metric {
	var all, perWindow []float64
	enough := true
	for _, w := range byWindow {
		all = append(all, w...)
		perWindow = append(perWindow, percentile(sortedCopy(w), p))
		enough = enough && supported(len(w), p)
	}
	if enough {
		return fromWindows(name, unit, perWindow, len(all), false)
	}
	return metric{Name: name, Unit: unit, Value: percentile(sortedCopy(all), p), Samples: len(all)}
}

// runConfig is one run of one workload.
type runConfig struct {
	w       workloadSpec
	seed    int64
	seconds float64
	sc      scale
}

// runResult is what one run produced. Metrics are the ones BENCHMARK.json
// names (end-to-end for an untraced run, per-layer for a traced one); Detail
// holds further client-observed numbers that only some workloads have, so
// they cannot be end-to-end metrics of the driver's contract.
type runResult struct {
	Workload  string   `json:"workload"`
	Traced    bool     `json:"traced"`
	Seed      int64    `json:"seed"`
	Metrics   []metric `json:"metrics"`
	Detail    []metric `json:"detail,omitempty"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	WallS     float64  `json:"wall_s"`
}

// served is a running pvserve together with the scan oracle's copy of what
// it holds.
type served struct {
	e       *env
	cfg     runConfig
	ds      datasetSpec
	db      *uncertain.DB // oracle state: mirrors every acknowledged update
	file    string
	dataDir string // non-empty: durable mode (-data-dir)
	child   *child
}

// serve generates the workload's dataset, writes it to a file and execs
// pvserve on it — in durable mode (WAL fsync per commit, initial checkpoint
// after the build) when durable is set. The returned duration, exec → first
// 200 on /healthz, is the workload's setup_s.
func serve(e *env, cfg runConfig, label string, durable bool) (*served, time.Duration, error) {
	s := &served{e: e, cfg: cfg, ds: cfg.sc.data(cfg.w.Data)}
	s.db = genDataset(s.ds, cfg.seed)
	s.file = filepath.Join(e.tmpDir, label+".gob")
	if durable {
		s.dataDir = filepath.Join(e.tmpDir, label+".d")
	}
	if err := dataset.Save(s.db, s.file); err != nil {
		return nil, 0, fmt.Errorf("writing dataset file: %w", err)
	}
	setup, err := s.exec(label)
	return s, setup, err
}

// exec starts pvserve: a build on first boot, a recovery when the data
// directory already holds a checkpoint.
func (s *served) exec(label string) (time.Duration, error) {
	args := []string{"-data", s.file}
	if s.dataDir != "" {
		args = append(args, "-data-dir", s.dataDir)
	}
	c, d, err := s.e.start(label, args...)
	if err == nil {
		s.child = c
	}
	return d, err
}

// runEndToEnd runs one untraced workload: set-up, correctness gate, warm-up
// and the timed fixed-work sequence; on ingest-durable-d2 also a SIGKILL, a
// restart on the same directory and the durability gate.
func runEndToEnd(e *env, cfg runConfig) (*runResult, error) {
	t0 := time.Now()
	label := fmt.Sprintf("%s-seed%d", cfg.w.Name, cfg.seed)
	s, setup, err := serve(e, cfg, label, cfg.w.Kind == kindIngest)
	if err != nil {
		return nil, err
	}
	defer func() { s.child.kill() }()
	res := &runResult{Workload: cfg.w.Name, Seed: cfg.seed}
	res.Metrics = append(res.Metrics, single("setup_s", "s", setup.Seconds()))

	if cfg.w.Kind != kindIngest {
		if err := s.runReads(res); err != nil {
			return nil, err
		}
		res.WallS = time.Since(t0).Seconds()
		return res, nil
	}

	out, err := s.runIngest(res, ingestOpts{gate: true, firstID: firstNewID})
	if err != nil {
		return nil, err
	}
	s.child.kill()
	recovery, err := s.exec(label + "-recovered")
	if err != nil {
		return nil, fmt.Errorf("restart after SIGKILL: %w", err)
	}
	res.Detail = append(res.Detail, single("recovery_s", "s", recovery.Seconds()))
	attempted, failed, err := durabilityGate(s.child, s.db.Len(), out.live, out.deleted)
	if err != nil {
		return nil, fmt.Errorf("durability gate: %w", err)
	}
	res.Attempted += attempted
	res.Failed += failed
	if err := correctnessGate(s.child.addr, cfg.w, s.db, cfg.seed, gateOps/10); err != nil {
		return nil, fmt.Errorf("after restart: %w", err)
	}
	res.WallS = time.Since(t0).Seconds()
	return res, nil
}

// readSequences builds the closed-loop clients' op sequences for a read
// workload: n ops per client, drawn from one seeded stream and dealt out
// alternately so the clients never repeat each other's points.
func readSequences(w workloadSpec, domain geom.Rect, n int, seed int64) [][]request {
	total := n * clients
	points := dataset.QueryPoints(domain, total, subSeed(seed, purposeQueries))
	seqs := make([][]request, clients)
	for c := range seqs {
		seqs[c] = make([]request, n)
	}
	if w.Kind == kindExt {
		gs := genGroups(domain, total, subSeed(seed, purposeGroups))
		for i := 0; i < total; i++ {
			c, j := i%clients, i/clients
			if j%2 == 0 {
				seqs[c][j] = knnRequest(points[i])
			} else {
				seqs[c][j] = groupRequest(gs[i])
			}
		}
		return seqs
	}
	for i := 0; i < total; i++ {
		seqs[i%clients][i/clients] = queryRequest(opQuery, points[i])
	}
	return seqs
}

// runReads gates, warms up and times a read workload.
func (s *served) runReads(res *runResult) error {
	cfg := s.cfg
	if err := correctnessGate(s.child.addr, cfg.w, s.db, cfg.seed, gateOps); err != nil {
		return err
	}
	n := cfg.w.opCount(cfg.seconds, cfg.sc, 2)
	// Warm-up: a tenth of the sequence from a different seed, so the record
	// cache, the connections and both Go schedulers are in steady state.
	warm := readSequences(cfg.w, s.db.Domain, max(n/10/2*2, 2), cfg.seed+7919)
	if _, err := runClosed(s.child.addr, warm, false); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	logs, err := runClosed(s.child.addr, readSequences(cfg.w, s.db.Domain, n, cfg.seed), false)
	if err != nil {
		return err
	}
	attempted, failed := countFailed(logs)
	res.Attempted += attempted
	res.Failed += failed
	metrics, p99 := readMetrics(cfg.w, logs)
	res.Metrics = append(res.Metrics, metrics...)
	res.Detail = append(res.Detail, p99)
	if cfg.w.Kind == kindExt {
		for _, k := range []struct {
			kind opKind
			name string
		}{{opKNN, "knn"}, {opGroupNN, "groupnn"}} {
			byWindow := make([][]float64, windows)
			for w := range byWindow {
				byWindow[w] = latencies(logs, k.kind, w)
			}
			res.Detail = append(res.Detail,
				quantileMetric(k.name+"_p50_us", "us", byWindow, 0.50),
				quantileMetric(k.name+"_p99_us", "us", byWindow, 0.99))
		}
	}
	return nil
}

// readMetrics turns a read workload's logs into its end-to-end metrics. On
// ext-http-d2 the timed unit is one exchange — a /v1/possibleknn followed by
// a /v1/groupnn on the same connection — because the two kinds' latencies
// form two separate humps (about 1.0 ms and 0.45 ms), and the median of
// their mix would sit in the gap between them and jump from run to run. The
// per-kind percentiles are in the run's detail, and so is the p99: on the
// sizing box it repeats within 30 % only (it doubles the host's own drift),
// which no bound the driver accepts can hold.
func readMetrics(w workloadSpec, logs []clientLog) (endToEnd []metric, p99 metric) {
	attempted, failed := countFailed(logs)
	byWindow := make([][]float64, windows)
	for win := range byWindow {
		if w.Kind == kindExt {
			byWindow[win] = exchangeLatencies(logs, win)
		} else {
			byWindow[win] = latencies(logs, opQuery, win)
		}
	}
	return []metric{
		fromWindows("ops_per_s", "1/s", throughput(logs), attempted-failed, true),
		quantileMetric("p50_us", "us", byWindow, 0.50),
	}, quantileMetric("p99_us", "us", byWindow, 0.99)
}

// exchangeLatencies sums each connection's consecutive (kNN, group-NN) pair
// in window w, in microseconds. Pairs with a failed half are left out.
func exchangeLatencies(logs []clientLog, w int) []float64 {
	var out []float64
	for _, l := range logs {
		n := len(l.samples)
		for i := 0; i+1 < n; i += 2 {
			a, b := l.samples[i], l.samples[i+1]
			if windowOf(i, n) == w && a.ok && b.ok {
				out = append(out, us(a.lat+b.lat))
			}
		}
	}
	return out
}
