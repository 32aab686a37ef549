package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// config is the block every report starts with: what the numbers were
// measured on.
type config struct {
	GoVersion  string  `json:"go_version"`
	GOGC       string  `json:"gogc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	Kernel     string  `json:"kernel"`
	GitRev     string  `json:"git_rev"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Scale      string  `json:"scale"`
	When       string  `json:"when"`
}

func currentConfig(root string, seed int64, seconds float64, sc scale) config {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (default)"
	}
	c := config{
		GoVersion: runtime.Version(), GOGC: gogc, GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Kernel: "unknown", GitRev: "unknown", Seed: seed, Seconds: seconds, Scale: sc.Name,
		When: time.Now().UTC().Format(time.RFC3339),
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		c.Kernel = strings.TrimSpace(string(b))
	}
	// The driver's checkout is not a git repository; the revision is then
	// simply unknown.
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	if b, err := cmd.Output(); err == nil {
		c.GitRev = strings.TrimSpace(string(b))
	}
	return c
}

// report is the one schema the harness writes: a config block and, per
// workload, an untraced run (end-to-end metrics) and a traced run (per-layer
// metrics).
type report struct {
	Config config      `json:"config"`
	Runs   []runResult `json:"runs"`
}

// printMetrics lists metrics by name with their unit. A windowed metric
// shows the quartiles of its windows beside the reported quiet decile, and
// reads "unresolved" instead of a number when their distance exceeds the
// metric's regression bound: the run itself could not pin the value down
// that well.
func printMetrics(w io.Writer, metrics []metric, bounds map[string]float64) {
	for _, m := range metrics {
		if m.Win == nil {
			fmt.Fprintf(w, "  %-36s %14.4f %-6s n=%d\n", m.Name, m.Value, m.Unit, m.Samples)
			continue
		}
		value := fmt.Sprintf("%14.4f", m.Value)
		if b, ok := bounds[m.Name]; ok && m.Win.Spread > b {
			value = fmt.Sprintf("%14s", "unresolved")
		}
		fmt.Fprintf(w, "  %-36s %s %-6s n=%d  %d windows, quartiles %.5g | %.5g | %.5g (spread %.1f%%)\n",
			m.Name, value, m.Unit, m.Samples, len(m.Win.Values), m.Win.Q1, m.Win.Median, m.Win.Q3, 100*m.Win.Spread)
	}
}

// printResult lists a run's metrics, then its detail.
func printResult(w io.Writer, res *runResult, bounds map[string]float64) {
	mode := "end-to-end"
	if res.Traced {
		mode = "traced, per-layer"
	}
	fmt.Fprintf(w, "== %s  seed %d  (%s)  attempted %d  failed %d  error_rate %.4g  wall %.1f s\n",
		res.Workload, res.Seed, mode, res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)), res.WallS)
	printMetrics(w, res.Metrics, bounds)
	if len(res.Detail) > 0 {
		fmt.Fprintf(w, "  -- detail (this workload only, no bound)\n")
		printMetrics(w, res.Detail, nil)
	}
}

// runSet runs every workload untraced, then every workload traced, and
// writes one report.
func runSet(e *env, seed int64, seconds float64, sc scale, outFile string) int {
	spec, err := loadSpec(e.root)
	if err != nil {
		logf("benchmark: %v", err)
		return 2
	}
	rep := report{Config: currentConfig(e.root, seed, seconds, sc)}
	failed := 0
	for _, traced := range []bool{false, true} {
		for _, w := range workloads {
			res, err := runOne(e, runConfig{w: w, seed: seed, seconds: seconds, sc: sc}, traced)
			if err != nil {
				logf("benchmark: %s: %v", w.Name, err)
				return 1
			}
			printResult(os.Stdout, res, spec.bounds())
			rep.Runs = append(rep.Runs, *res)
			failed += res.Failed
		}
	}
	if outFile == "" {
		outFile = filepath.Join(e.outDir, fmt.Sprintf("set-seed%d.json", seed))
	}
	data, err := json.MarshalIndent(rep, "", " ")
	if err == nil {
		err = os.WriteFile(outFile, append(data, '\n'), 0o644)
	}
	if err != nil {
		logf("benchmark: writing report: %v", err)
		return 2
	}
	fmt.Printf("report: %s\n", outFile)
	if failed > 0 {
		logf("benchmark: %d operations failed", failed)
		return 1
	}
	return 0
}

// benchSpec is the part of BENCHMARK.json the harness itself reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

// specMetric is one metric as BENCHMARK.json declares it (per-layer metrics
// have no bound).
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(root string) (*benchSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

func (s *benchSpec) bounds() map[string]float64 {
	out := make(map[string]float64, len(s.EndToEnd))
	for _, m := range s.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out
}
