// Command pvbench regenerates the paper's evaluation (§VII): every figure of
// Figs. 9 and 10 plus Table I, the parameter-sensitivity study and the
// ablations, on synthetic and simulated real datasets. Serving-layer numbers
// (throughput, latency, write path, recovery) come from benchmark/run.sh.
//
// Usage:
//
//	pvbench [flags] <experiment>...
//	pvbench -scale 0.05 fig9a fig9c
//	pvbench -scale 0.02 all
//
// Experiments: fig9a fig9b fig9c fig9d fig9e fig9f fig9g fig9h
//
//	fig10a fig10b fig10c fig10d fig10e fig10f fig10g fig10h fig10i
//	params table1 ablations all
//
// Results print as aligned tables.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"pvoronoi/internal/bench"
	"pvoronoi/internal/stats"
)

func main() {
	var (
		scale     = flag.Float64("scale", 0.05, "fraction of the paper's dataset sizes (1.0 = paper scale)")
		queries   = flag.Int("queries", 50, "queries per data point")
		instances = flag.Int("instances", 100, "pdf samples per object (paper: 500)")
		seed      = flag.Int64("seed", 1, "generator seed")
		verbose   = flag.Bool("v", false, "progress logging")
		procs     = flag.Int("procs", 0, "GOMAXPROCS override (0 = runtime default)")
	)
	flag.Usage = usage
	flag.Parse()
	if *procs > 0 {
		runtime.GOMAXPROCS(*procs)
	}
	if flag.NArg() == 0 {
		usage()
		os.Exit(2)
	}

	p := bench.Params{
		Scale:     *scale,
		Queries:   *queries,
		Instances: *instances,
		Seed:      *seed,
	}
	if *verbose {
		p.Out = os.Stderr
	}

	experiments := map[string]func(bench.Params) []*stats.Table{
		"table1": func(bench.Params) []*stats.Table { return []*stats.Table{bench.ParamTable()} },
		"fig9a":  one(bench.Fig9a),
		"fig9b":  one(bench.Fig9b),
		"fig9c":  one(bench.Fig9c),
		"fig9d":  one(bench.Fig9d),
		"fig9e":  one(bench.Fig9e),
		"fig9f":  one(bench.Fig9f),
		"fig9g":  one(bench.Fig9g),
		"fig9h":  one(bench.Fig9h),
		"fig10a": one(bench.Fig10a),
		"fig10b": one(bench.Fig10b),
		"fig10c": one(bench.Fig10c),
		"fig10d": one(bench.Fig10d),
		"fig10e": one(bench.Fig10e),
		"fig10f": one(bench.Fig10f),
		"fig10g": one(bench.Fig10g),
		"fig10h": one(bench.Fig10h),
		"fig10i": one(bench.Fig10i),
		"params": bench.ParamSensitivity,
		"ablations": func(p bench.Params) []*stats.Table {
			return []*stats.Table{
				bench.AblationMemBudget(p),
				bench.AblationPrimaryIndex(p),
				bench.AblationParallelBuild(p),
			}
		},
	}
	order := []string{
		"table1",
		"fig9a", "fig9b", "fig9c", "fig9d", "fig9e", "fig9f", "fig9g", "fig9h",
		"fig10a", "fig10b", "fig10c", "fig10d", "fig10e", "fig10f", "fig10g", "fig10h", "fig10i",
		"params", "ablations",
	}

	var names []string
	allSeen := false
	for _, arg := range flag.Args() {
		if arg == "all" {
			allSeen = true
			continue
		}
		if _, ok := experiments[arg]; !ok {
			fmt.Fprintf(os.Stderr, "pvbench: unknown experiment %q\n", arg)
			usage()
			os.Exit(2)
		}
		names = append(names, arg)
	}
	if allSeen {
		names = order
	}

	fmt.Printf("pvbench: scale=%.3g queries=%d instances=%d seed=%d\n\n",
		p.Scale, p.Queries, p.Instances, p.Seed)
	for _, name := range names {
		start := time.Now()
		for _, tab := range experiments[name](p) {
			fmt.Println(tab.String())
		}
		if p.Out != nil {
			fmt.Fprintf(os.Stderr, "%s took %v\n", name, time.Since(start).Round(time.Millisecond))
		}
	}
}

// one adapts a single-table experiment to the multi-table signature.
func one(f func(bench.Params) *stats.Table) func(bench.Params) []*stats.Table {
	return func(p bench.Params) []*stats.Table { return []*stats.Table{f(p)} }
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: pvbench [flags] <experiment>...

Regenerates the evaluation of "Voronoi-based Nearest Neighbor Search for
Multi-Dimensional Uncertain Databases" (ICDE 2013).

experiments:
  table1                        parameter table (Table I)
  fig9a..fig9h                  PNNQ query performance (Fig. 9)
  fig10a..fig10i                construction & update performance (Fig. 10)
  params                        parameter sensitivity study (§VII-C a)
  ablations                     memory budget, primary index, parallel build
  all                           everything above, in order

flags:
`)
	flag.PrintDefaults()
	fmt.Fprintf(os.Stderr, `
examples:
  pvbench fig9a                         # query time vs |S|, laptop scale
  pvbench -scale 0.2 -v all             # larger run with progress logs
  pvbench -scale 1 fig9a                # paper-scale (slow: 100k objects)
`)
}
