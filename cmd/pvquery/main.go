// Command pvquery builds a PV-index over a dataset and evaluates
// probabilistic nearest neighbor queries against it.
//
// Usage:
//
//	pvquery -data data.gob -q "5000,5000,100"          # one query point
//	pvquery -data data.gob -random 20                  # 20 random queries
//	pvquery -n 5000 -d 2 -random 5 -step1only          # generate in-process
//
// Flags: -data loads a pvgen dataset (omitted: -n/-d/-uo/-instances/-seed
// generate one in-process); -q takes one comma-separated query point and
// -random adds that many uniform query points; -step1only skips probability
// computation; -cset picks the C-set strategy (all | fs | is); -workers
// enables the parallel builder; -saveindex/-loadindex persist and reuse the
// built index across runs.
//
// Output format (stdout, human-readable): a build or load summary line,
// then per query one header line — "q=[...]: N possible NNs (Step 1 took
// ...)" — followed by up to ten result lines. With -step1only each line is
// "object <id> dist [min, max]"; otherwise Step 2 runs and each line is
// "object <id> p=<probability>", sorted by decreasing probability.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"pvoronoi"
	"pvoronoi/internal/dataset"
	"pvoronoi/internal/geom"
)

func main() {
	var (
		data      = flag.String("data", "", "dataset file from pvgen (omit to generate synthetic in-process)")
		n         = flag.Int("n", 5000, "object count for in-process generation")
		d         = flag.Int("d", 3, "dimensionality for in-process generation")
		uo        = flag.Float64("uo", 60, "max |u(o)| for in-process generation")
		instances = flag.Int("instances", 100, "pdf samples for in-process generation")
		seed      = flag.Int64("seed", 1, "seed")
		qstr      = flag.String("q", "", "query point, comma-separated coordinates")
		random    = flag.Int("random", 0, "run this many random queries")
		step1     = flag.Bool("step1only", false, "skip probability computation (Step 2)")
		strategy  = flag.String("cset", "is", "C-set strategy: all | fs | is")
		saveIdx   = flag.String("saveindex", "", "write the built index to this file")
		loadIdx   = flag.String("loadindex", "", "load a previously saved index instead of building")
		workers   = flag.Int("workers", 0, "parallel build workers (0 = serial)")
	)
	flag.Parse()

	db, err := loadOrGenerate(*data, *n, *d, *uo, *instances, *seed)
	if err != nil {
		fail(err)
	}

	opts := pvoronoi.DefaultOptions()
	switch strings.ToLower(*strategy) {
	case "all":
		opts.Strategy = pvoronoi.CSetAll
	case "fs":
		opts.Strategy = pvoronoi.CSetFS
	case "is":
		opts.Strategy = pvoronoi.CSetIS
	default:
		fail(fmt.Errorf("unknown C-set strategy %q", *strategy))
	}

	var ix *pvoronoi.Index
	if *loadIdx != "" {
		f, err := os.Open(*loadIdx)
		if err != nil {
			fail(err)
		}
		t0 := time.Now()
		ix, err = pvoronoi.LoadIndex(f, db)
		f.Close()
		if err != nil {
			fail(err)
		}
		fmt.Printf("loaded index over %d objects in %v\n", db.Len(), time.Since(t0).Round(time.Millisecond))
	} else {
		fmt.Printf("building PV-index over %d objects (d=%d, strategy=%s)...\n",
			db.Len(), db.Dim(), strings.ToUpper(*strategy))
		t0 := time.Now()
		if *workers > 0 {
			ix, err = pvoronoi.BuildParallel(db, opts, *workers)
		} else {
			ix, err = pvoronoi.Build(db, opts)
		}
		if err != nil {
			fail(err)
		}
		fmt.Printf("built in %v\n", time.Since(t0).Round(time.Millisecond))
	}
	if *saveIdx != "" {
		f, err := os.Create(*saveIdx)
		if err != nil {
			fail(err)
		}
		if err := ix.Save(f); err != nil {
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Printf("index saved to %s\n", *saveIdx)
	}

	var queries []pvoronoi.Point
	if *qstr != "" {
		q, err := parsePoint(*qstr, db.Dim())
		if err != nil {
			fail(err)
		}
		queries = append(queries, q)
	}
	if *random > 0 {
		queries = append(queries, dataset.QueryPoints(db.Domain, *random, *seed+7)...)
	}
	if len(queries) == 0 {
		fmt.Println("no queries requested; use -q or -random")
		return
	}

	for _, q := range queries {
		t1 := time.Now()
		cands, err := ix.PossibleNN(q)
		if err != nil {
			fail(err)
		}
		orTime := time.Since(t1)
		fmt.Printf("\nq=%v: %d possible NNs (Step 1 took %v)\n", q, len(cands), orTime.Round(time.Microsecond))
		if *step1 {
			for i, c := range cands {
				if i == 10 {
					fmt.Printf("  ... and %d more\n", len(cands)-10)
					break
				}
				fmt.Printf("  object %-6d dist [%.2f, %.2f]\n", c.ID, c.MinDist, c.MaxDist)
			}
			continue
		}
		t2 := time.Now()
		results, err := ix.Query(q)
		if err != nil {
			fail(err)
		}
		fmt.Printf("probabilities (Step 2 took %v):\n", time.Since(t2).Round(time.Microsecond))
		for i, r := range results {
			if i == 10 {
				fmt.Printf("  ... and %d more\n", len(results)-10)
				break
			}
			fmt.Printf("  object %-6d p=%.4f\n", r.ID, r.Prob)
		}
	}
}

func loadOrGenerate(path string, n, d int, uo float64, instances int, seed int64) (*pvoronoi.DB, error) {
	if path != "" {
		return dataset.Load(path)
	}
	if err := geom.CheckDim(d); err != nil {
		return nil, fmt.Errorf("-d: %w", err)
	}
	return dataset.Synthetic(dataset.SyntheticParams{
		N: n, Dim: d, MaxSide: uo, Instances: instances, Seed: seed,
	}), nil
}

func parsePoint(s string, dim int) (pvoronoi.Point, error) {
	parts := strings.Split(s, ",")
	if len(parts) != dim {
		return nil, fmt.Errorf("query point has %d coordinates, dataset is %d-dimensional", len(parts), dim)
	}
	p := make(pvoronoi.Point, dim)
	for i, part := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad coordinate %q: %v", part, err)
		}
		p[i] = v
	}
	return p, nil
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "pvquery: %v\n", err)
	os.Exit(1)
}
