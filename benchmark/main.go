// Command benchmark is the repository's one measuring harness: it generates
// every input from a seed, builds cmd/pvserve, runs four fixed-work workloads
// against it as a child process over loopback, checks the replies against
// scan oracles and prints every metric by name with its unit. See README.md.
//
// Driver contract (one workload, one JSON result line on stdout):
//
//	benchmark --workload pnnq-http-d3 --seed 3 --seconds 10 --trace 0
//
// Whole set for a person (all workloads, untraced then traced, one report):
//
//	benchmark -seed 1
//	benchmark compare out/set-a.json out/set-b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		workload = flag.String("workload", "", "run only this workload and print the driver's JSON result line")
		seed     = flag.Int64("seed", 1, "seed every input is generated from")
		seconds  = flag.Float64("seconds", 10, "nominal length of the timed sequence; op counts are fixed multiples of it")
		trace    = flag.Int("trace", 0, "with -workload: 0 = end-to-end metrics, 1 = traced run and per-layer metrics")
		scaleArg = flag.String("scale", "full", "full | smoke (tiny datasets, for the test)")
		outFile  = flag.String("out", "", "whole-set mode: report file (default benchmark/out/set-seed<seed>.json)")
	)
	flag.Parse()
	sc := scaleFull
	switch *scaleArg {
	case "full":
	case "smoke":
		sc = scaleSmoke
	default:
		fatal(fmt.Errorf("unknown -scale %q", *scaleArg))
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("-seconds must be positive"))
	}

	e, err := newEnv()
	if err != nil {
		fatal(err)
	}
	// Children are killed and scratch removed on every exit path: normal
	// return, fatal error, SIGINT/SIGTERM.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		e.close()
		os.Exit(130)
	}()
	code := run(e, *workload, *seed, *seconds, *trace != 0, sc, *outFile)
	e.close()
	os.Exit(code)
}

func fatal(err error) {
	logf("benchmark: %v", err)
	os.Exit(2)
}

func run(e *env, workload string, seed int64, seconds float64, traced bool, sc scale, outFile string) int {
	if err := e.buildPvserve(); err != nil {
		logf("benchmark: %v", err)
		return 2
	}
	if workload == "" {
		return runSet(e, seed, seconds, sc, outFile)
	}
	w, err := findWorkload(workload)
	if err != nil {
		logf("benchmark: %v", err)
		return 2
	}
	res, err := runOne(e, runConfig{w: w, seed: seed, seconds: seconds, sc: sc}, traced)
	if err != nil {
		logf("benchmark: %s: %v", w.Name, err)
		return 1
	}
	printResult(os.Stderr, res, nil)
	// The per-window values behind each number, for whoever doubts it. The
	// result line below does not depend on this file.
	detail := filepath.Join(e.outDir, fmt.Sprintf("%s-seed%d-trace%t.json", w.Name, seed, traced))
	data, err := json.MarshalIndent(res, "", " ")
	if err == nil {
		err = os.WriteFile(detail, append(data, '\n'), 0o644)
	}
	if err != nil {
		logf("benchmark: writing %s: %v", detail, err)
	}
	if err := printContractLine(res); err != nil {
		logf("benchmark: %v", err)
		return 2
	}
	if res.Failed > 0 {
		return 1
	}
	return 0
}

func runOne(e *env, cfg runConfig, traced bool) (*runResult, error) {
	if traced {
		return runTraced(e, cfg)
	}
	return runEndToEnd(e, cfg)
}

// printContractLine writes the driver's result: one JSON object, last line
// of stdout.
func printContractLine(res *runResult) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]value{}}
	for _, m := range res.Metrics {
		out.Metrics[m.Name] = value{Value: m.Value, Unit: m.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return fmt.Errorf("encoding result (a metric is not finite?): %w", err)
	}
	fmt.Println(string(line))
	return nil
}
