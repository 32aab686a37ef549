// Command pvgen generates the paper's evaluation datasets and writes them to
// a file loadable by pvquery and pvserve (and reusable across runs).
//
// Usage:
//
//	pvgen -out data.gob -n 20000 -d 3 -uo 60 -instances 500
//	pvgen -out roads.gob -real roads
//	pvgen -out air.gob -real airports -n 5000
//
// Flags: -out (required) names the output file; -n, -d, -uo, -instances and
// -seed parameterize synthetic generation (object count, dimensionality, max
// uncertainty-region side, pdf samples per object, RNG seed); -clustered
// switches synthetic placement from uniform to Gaussian clusters; -real
// selects a simulated real dataset (roads | rrlines | airports) instead.
//
// Output format: one dataset stream — a "PVDATA1" header, the domain, then
// every object's ID, region and instances in the fixed-width object codec
// (little-endian float64s; see internal/dataset/file.go). Files written
// before that codec were gob and are refused by name; regenerate them.
// On success pvgen prints a one-line summary of what it wrote to stdout.
package main

import (
	"flag"
	"fmt"
	"os"

	"pvoronoi/internal/dataset"
	"pvoronoi/internal/geom"
	"pvoronoi/internal/uncertain"
)

func main() {
	var (
		out       = flag.String("out", "", "output file (required)")
		n         = flag.Int("n", 20000, "object count")
		d         = flag.Int("d", 3, "dimensionality (synthetic only)")
		uo        = flag.Float64("uo", 60, "max uncertainty-region side |u(o)| (synthetic only)")
		instances = flag.Int("instances", 500, "pdf samples per object")
		seed      = flag.Int64("seed", 1, "generator seed")
		clustered = flag.Bool("clustered", false, "Gaussian clusters instead of uniform (synthetic only)")
		real      = flag.String("real", "", "simulated real dataset: roads | rrlines | airports")
	)
	flag.Parse()
	if *out == "" {
		fmt.Fprintln(os.Stderr, "pvgen: -out is required")
		flag.Usage()
		os.Exit(2)
	}

	db, err := generate(*real, *n, *d, *uo, *instances, *seed, *clustered)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pvgen: %v\n", err)
		os.Exit(1)
	}
	if err := dataset.Save(db, *out); err != nil {
		fmt.Fprintf(os.Stderr, "pvgen: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %d objects (d=%d, %d instances each) to %s\n",
		db.Len(), db.Dim(), *instances, *out)
}

func generate(real string, n, d int, uo float64, instances int, seed int64, clustered bool) (*uncertain.DB, error) {
	switch real {
	case "":
		if err := geom.CheckDim(d); err != nil {
			return nil, fmt.Errorf("-d: %w", err)
		}
		return dataset.Synthetic(dataset.SyntheticParams{
			N: n, Dim: d, MaxSide: uo, Instances: instances, Seed: seed, Clustered: clustered,
		}), nil
	case "roads":
		return dataset.Real(dataset.RealParams{Kind: dataset.Roads, N: n, Instances: instances, Seed: seed}), nil
	case "rrlines":
		return dataset.Real(dataset.RealParams{Kind: dataset.RRLines, N: n, Instances: instances, Seed: seed}), nil
	case "airports":
		return dataset.Real(dataset.RealParams{Kind: dataset.Airports, N: n, Instances: instances, Seed: seed}), nil
	default:
		return nil, fmt.Errorf("unknown real dataset %q (want roads, rrlines, or airports)", real)
	}
}
