package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// verdict of one (workload, metric) row.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

type compareRow struct {
	Workload, Metric, Unit string
	Parent, Change         float64
	Delta                  float64 // signed share of the parent: positive = worse
	Bound                  float64
	Verdict                string
}

// compareReports judges every end-to-end (workload, metric) pair of two
// reports against the bounds in BENCHMARK.json. A row is "worse" when the
// change's value is worse than the parent's by more than the bound, and
// "unresolved" when either run's own spread across windows is wider than the
// bound — the runs cannot tell a change of that size from noise.
func compareReports(spec *benchSpec, parent, change *report) ([]compareRow, error) {
	find := func(r *report, workload string) *runResult {
		for i := range r.Runs {
			if r.Runs[i].Workload == workload && !r.Runs[i].Traced {
				return &r.Runs[i]
			}
		}
		return nil
	}
	metricOf := func(r *runResult, name string) *metric {
		for i := range r.Metrics {
			if r.Metrics[i].Name == name {
				return &r.Metrics[i]
			}
		}
		return nil
	}
	var rows []compareRow
	for _, w := range spec.Workloads {
		a, b := find(parent, w.Name), find(change, w.Name)
		if a == nil || b == nil {
			return nil, fmt.Errorf("workload %s is missing from a report", w.Name)
		}
		for _, m := range spec.EndToEnd {
			ma, mb := metricOf(a, m.Name), metricOf(b, m.Name)
			if ma == nil || mb == nil {
				return nil, fmt.Errorf("%s: metric %s is missing from a report", w.Name, m.Name)
			}
			row := compareRow{Workload: w.Name, Metric: m.Name, Unit: m.Unit, Parent: ma.Value, Change: mb.Value, Bound: m.Bound}
			row.Delta = (mb.Value - ma.Value) / math.Abs(ma.Value)
			if m.Better == "higher" {
				row.Delta = -row.Delta
			}
			switch {
			case spreadOf(ma) > m.Bound || spreadOf(mb) > m.Bound:
				row.Verdict = verdictUnresolved
			case row.Delta > m.Bound:
				row.Verdict = verdictWorse
			default:
				row.Verdict = verdictOK
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

func spreadOf(m *metric) float64 {
	if m.Win == nil {
		return 0
	}
	return m.Win.Spread
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareMain implements `benchmark compare parent.json change.json`: one
// row per (workload, end-to-end metric), exit status 1 on any "worse".
func compareMain(args []string) int {
	if len(args) != 2 {
		logf("usage: benchmark compare parent.json change.json")
		return 2
	}
	root, err := findRoot()
	if err != nil {
		logf("benchmark compare: %v", err)
		return 2
	}
	spec, err := loadSpec(root)
	if err != nil {
		logf("benchmark compare: %v", err)
		return 2
	}
	parent, err := readReport(args[0])
	if err != nil {
		logf("benchmark compare: %v", err)
		return 2
	}
	change, err := readReport(args[1])
	if err != nil {
		logf("benchmark compare: %v", err)
		return 2
	}
	rows, err := compareReports(spec, parent, change)
	if err != nil {
		logf("benchmark compare: %v", err)
		return 2
	}
	fmt.Printf("parent %s (seed %d)   change %s (seed %d)\n", parent.Config.GitRev, parent.Config.Seed, change.Config.GitRev, change.Config.Seed)
	fmt.Printf("%-20s %-12s %14s %14s %-5s %8s %7s  %s\n", "workload", "metric", "parent", "change", "unit", "worse by", "bound", "verdict")
	code := 0
	for _, r := range rows {
		fmt.Printf("%-20s %-12s %14.4f %14.4f %-5s %+7.1f%% %6.0f%%  %s\n",
			r.Workload, r.Metric, r.Parent, r.Change, r.Unit, 100*r.Delta, 100*r.Bound, r.Verdict)
		if r.Verdict == verdictWorse {
			code = 1
		}
	}
	return code
}
