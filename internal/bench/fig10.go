package bench

import (
	"fmt"
	"time"

	"pvoronoi/internal/core"
	"pvoronoi/internal/dataset"
	"pvoronoi/internal/geom"
	"pvoronoi/internal/pvindex"
	"pvoronoi/internal/stats"
	"pvoronoi/internal/uncertain"
	"pvoronoi/internal/uvindex"
)

// defaultStrategy is IS, the paper's default chooseCSet implementation.
const defaultStrategy = core.CSetIS

// Fig10a: construction time Tc vs the SE termination threshold Δ.
// Paper: Tc drops as Δ grows (fewer SE iterations).
func Fig10a(p Params) *stats.Table {
	n := p.n(60000)
	db := synthetic(p, n, 3, 60)
	tab := stats.NewTable("Fig 10(a): Tc vs Δ  (|S|=60k scaled, d=3, IS)",
		"Δ", "Tc", "SE iterations")
	for _, delta := range []float64{0.1, 0.5, 1, 10, 100, 500, 1000} {
		ix := buildPVDelta(db, delta)
		tab.AddRow(delta, ix.Build.Total, ix.Build.SE.Iterations)
		p.logf("fig10a: Δ=%g done\n", delta)
	}
	return tab
}

// Fig10b: Tc vs |S| for the ALL, FS, and IS C-set strategies (log scale in
// the paper). ALL is orders of magnitude slower — the paper measured 103
// hours at |S|=20k — so this sweep uses small databases.
func Fig10b(p Params) *stats.Table {
	tab := stats.NewTable("Fig 10(b): Tc vs |S| — ALL vs FS vs IS  (small |S|; ALL is O(|S|) per SE test)",
		"|S|", "Tc ALL", "Tc FS", "Tc IS", "ALL/IS")
	for _, paperN := range []int{2000, 4000, 6000, 8000, 10000} {
		n := p.n(paperN)
		db := synthetic(p, n, 3, 60)
		all := buildPV(db, core.CSetAll).Build.Total
		fs := buildPV(db, core.CSetFS).Build.Total
		is := buildPV(db, core.CSetIS).Build.Total
		tab.AddRow(n, all, fs, is, ratio(all, is))
		p.logf("fig10b: |S|=%d done (ALL %v)\n", n, all)
	}
	return tab
}

// Fig10c: Tc vs |S| for FS vs IS at paper-scale sweeps.
// Paper: IS always beats FS.
func Fig10c(p Params) *stats.Table {
	tab := stats.NewTable("Fig 10(c): Tc vs |S| — FS vs IS",
		"|S|", "Tc FS", "Tc IS", "FS/IS")
	for _, n := range p.sweepSizes() {
		db := synthetic(p, n, 3, 60)
		fs := buildPV(db, core.CSetFS).Build.Total
		is := buildPV(db, core.CSetIS).Build.Total
		tab.AddRow(n, fs, is, ratio(fs, is))
		p.logf("fig10c: |S|=%d done\n", n)
	}
	return tab
}

// Fig10d: Tc vs |u(o)| for FS vs IS.
func Fig10d(p Params) *stats.Table {
	n := p.n(60000)
	tab := stats.NewTable("Fig 10(d): Tc vs |u(o)| — FS vs IS  (|S|=60k scaled)",
		"|u(o)|", "Tc FS", "Tc IS", "FS/IS")
	for _, uo := range []float64{20, 40, 60, 80, 100} {
		db := synthetic(p, n, 3, uo)
		fs := buildPV(db, core.CSetFS).Build.Total
		is := buildPV(db, core.CSetIS).Build.Total
		tab.AddRow(uo, fs, is, ratio(fs, is))
		p.logf("fig10d: |u(o)|=%g done\n", uo)
	}
	return tab
}

// Fig10e: the composition of SE time — chooseCSet vs UBR computation — for
// FS and IS. Paper: UBR computation dominates; IS selects smaller C-sets
// (120 vs 200 on average) and is faster overall.
func Fig10e(p Params) *stats.Table {
	n := p.n(60000)
	db := synthetic(p, n, 3, 60)
	tab := stats.NewTable("Fig 10(e): SE time composition  (|S|=60k scaled, d=3)",
		"strategy", "chooseCSet", "UBR compute", "avg C-set", "Tc total")
	for _, strat := range []core.CSetStrategy{core.CSetFS, core.CSetIS} {
		ix := buildPV(db, strat)
		avg := float64(ix.Build.SE.CSetSize) / float64(ix.Build.Objects)
		tab.AddRow(strat.String(), ix.Build.SE.CSetTime, ix.Build.SE.UBRTime, avg, ix.Build.Total)
	}
	return tab
}

// Fig10f: Tc on the (simulated) real datasets, FS vs IS.
func Fig10f(p Params) *stats.Table {
	tab := stats.NewTable("Fig 10(f): Tc on real datasets — FS vs IS",
		"dataset", "Tc FS", "Tc IS", "FS/IS")
	for _, kind := range []dataset.RealKind{dataset.Roads, dataset.RRLines, dataset.Airports} {
		db := dataset.Real(dataset.RealParams{
			Kind: kind, N: p.n(kind.Size()), Instances: p.Instances, Seed: p.Seed,
		})
		fs := buildPV(db, core.CSetFS).Build.Total
		is := buildPV(db, core.CSetIS).Build.Total
		tab.AddRow(kind.String(), fs, is, ratio(fs, is))
		p.logf("fig10f: %s done\n", kind)
	}
	return tab
}

// Fig10g: PV-index vs UV-index construction time on the 2-D real datasets.
// Paper: PV construction 15–25× faster.
func Fig10g(p Params) *stats.Table {
	tab := stats.NewTable("Fig 10(g): construction speedup over UV-index (2-D real datasets)",
		"dataset", "Tc UV-index", "Tc PV-index", "UV/PV")
	for _, kind := range []dataset.RealKind{dataset.Roads, dataset.RRLines} {
		db := dataset.Real(dataset.RealParams{
			Kind: kind, N: p.n(kind.Size()), Instances: p.Instances, Seed: p.Seed,
		})
		uv, err := uvindex.Build(db, uvindex.DefaultConfig())
		if err != nil {
			panic(err)
		}
		pv := buildPV(db, defaultStrategy)
		tab.AddRow(kind.String(), uv.Build.Total, pv.Build.Total, ratio(uv.Build.Total, pv.Build.Total))
		p.logf("fig10g: %s done\n", kind)
	}
	return tab
}

// updateExperiment measures incremental maintenance vs rebuild for one
// database size. ops objects are first removed (for insertion) or present
// (for deletion); Tu is per-object time.
func updateExperiment(p Params, n int, insert bool) (inc, rebuild time.Duration, qdiff float64) {
	ops := n / 20 // the paper uses 1k ops on 20k–100k objects (5–1%)
	if ops < 5 {
		ops = 5
	}
	full := synthetic(p, n, 3, 60)

	if insert {
		// Build on the database without the last `ops` objects, then
		// re-insert them incrementally.
		base := uncertain.NewDB(full.Domain)
		var pending []*uncertain.Object
		for i, o := range full.Objects() {
			if i < n-ops {
				_ = base.Add(o)
			} else {
				pending = append(pending, o)
			}
		}
		ix := buildPV(base, defaultStrategy)
		t0 := time.Now()
		for _, o := range pending {
			if _, err := ix.Insert(o); err != nil {
				panic(err)
			}
		}
		inc = time.Since(t0) / time.Duration(len(pending))
		// Rebuild cost per op = building the final database from scratch.
		rebuilt := buildPV(ix.DB(), defaultStrategy)
		rebuild = rebuilt.Build.Total
		qdiff = queryTimeDiff(ix, rebuilt, p)
		return inc, rebuild, qdiff
	}

	// Deletion: build on the full database, delete `ops` objects.
	ix := buildPV(full, defaultStrategy)
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		if _, err := ix.Delete(uncertain.ID(i)); err != nil {
			panic(err)
		}
	}
	inc = time.Since(t0) / time.Duration(ops)
	rebuilt := buildPV(ix.DB(), defaultStrategy)
	rebuild = rebuilt.Build.Total
	qdiff = queryTimeDiff(ix, rebuilt, p)
	return inc, rebuild, qdiff
}

// queryTimeDiff compares query times of the incrementally maintained index
// vs the rebuilt one (paper: ≈1.4% for insertion, ≈0.9% for deletion). Both
// sides take the best of several repetitions — individual queries run in
// tens of microseconds, so single-shot timing is dominated by noise.
func queryTimeDiff(inc, rebuilt *pvindex.Index, p Params) float64 {
	queries := dataset.QueryPoints(inc.DB().Domain, p.Queries, p.Seed+200)
	ti := timeQueries(inc, queries)
	tr := timeQueries(rebuilt, queries)
	if tr == 0 {
		return 0
	}
	d := (float64(ti) - float64(tr)) / float64(tr) * 100
	if d < 0 {
		d = -d
	}
	return d
}

func timeQueries(ix *pvindex.Index, queries []geom.Point) time.Duration {
	best := time.Duration(0)
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		for _, q := range queries {
			if _, err := ix.PossibleNN(q); err != nil {
				panic(err)
			}
		}
		if d := time.Since(t0); rep == 0 || d < best {
			best = d
		}
	}
	return best
}

// Fig10h: per-object insertion time — incremental vs rebuild.
// Paper: Inc two or more orders of magnitude faster.
func Fig10h(p Params) *stats.Table {
	tab := stats.NewTable("Fig 10(h): insertion Tu — Inc vs Rebuild",
		"|S|", "Tu Inc", "Tu Rebuild", "speedup", "query diff %")
	for _, n := range p.sweepSizes() {
		inc, rebuild, qdiff := updateExperiment(p, n, true)
		tab.AddRow(n, inc, rebuild, ratio(rebuild, inc), qdiff)
		p.logf("fig10h: |S|=%d done\n", n)
	}
	return tab
}

// Fig10i: per-object deletion time — incremental vs rebuild.
func Fig10i(p Params) *stats.Table {
	tab := stats.NewTable("Fig 10(i): deletion Tu — Inc vs Rebuild",
		"|S|", "Tu Inc", "Tu Rebuild", "speedup", "query diff %")
	for _, n := range p.sweepSizes() {
		inc, rebuild, qdiff := updateExperiment(p, n, false)
		tab.AddRow(n, inc, rebuild, ratio(rebuild, inc), qdiff)
		p.logf("fig10i: |S|=%d done\n", n)
	}
	return tab
}

// ParamTable reproduces Table I: parameters and defaults.
func ParamTable() *stats.Table {
	tab := stats.NewTable("Table I: parameters (defaults in bold in the paper)",
		"parameter", "values (synthetic)", "values (real)", "default")
	tab.AddRow("|S|", "20k,40k,60k,80k,100k", "30k,36k,20k", "60k")
	tab.AddRow("d", "2,3,4,5", "2,3", "3")
	tab.AddRow("|u(o)|", "20,40,60,80,100", "N/A", "60")
	tab.AddRow("Δ", "0.1,0.5,1,10-1000", "1", "1")
	tab.AddRow("m_max", "2-5,10,20,40", "10", "10")
	tab.AddRow("k", "20,40,100,200,400", "200", "200")
	tab.AddRow("k_partition", "2,5,10,20,50", "10", "10")
	tab.AddRow("k_global", "200", "200", "200")
	return tab
}

// ParamSensitivity reproduces the §VII-C(a) parameter study: query and
// construction time stability across Δ, k, and k_partition.
func ParamSensitivity(p Params) []*stats.Table {
	n := p.n(40000)
	db := synthetic(p, n, 3, 60)
	queries := dataset.QueryPoints(db.Domain, p.Queries, p.Seed+100)

	var tables []*stats.Table

	tq := stats.NewTable("Params: Tq and Tc vs Δ", "Δ", "Tq", "Tc")
	for _, delta := range []float64{0.1, 1, 10, 100, 1000} {
		ix := buildPVDelta(db, delta)
		c := measure(db, queries, pvStep1(ix))
		tq.AddRow(delta, c.Total(), ix.Build.Total)
	}
	tables = append(tables, tq)

	tk := stats.NewTable("Params: Tq and Tc vs k (FS)", "k", "Tq", "Tc")
	for _, k := range []int{20, 40, 100, 200, 400} {
		cfg := pvindex.DefaultConfig()
		cfg.SE.Strategy = core.CSetFS
		cfg.SE.K = k
		ix, err := pvindex.Build(db, cfg)
		if err != nil {
			panic(err)
		}
		c := measure(db, queries, pvStep1(ix))
		tk.AddRow(k, c.Total(), ix.Build.Total)
	}
	tables = append(tables, tk)

	tp := stats.NewTable("Params: Tq and Tc vs k_partition (IS)", "k_partition", "Tq", "Tc")
	for _, kp := range []int{2, 5, 10, 20, 50} {
		cfg := pvindex.DefaultConfig()
		cfg.SE.Strategy = core.CSetIS
		cfg.SE.KPartition = kp
		ix, err := pvindex.Build(db, cfg)
		if err != nil {
			panic(err)
		}
		c := measure(db, queries, pvStep1(ix))
		tp.AddRow(kp, c.Total(), ix.Build.Total)
	}
	tables = append(tables, tp)

	tm := stats.NewTable("Params: Tc vs m_max (domination granularity)", "m_max", "Tc", "domination tests")
	for _, mm := range []int{2, 5, 10, 20} {
		cfg := pvindex.DefaultConfig()
		cfg.SE.MaxDepth = mm
		ix, err := pvindex.Build(db, cfg)
		if err != nil {
			panic(err)
		}
		tm.AddRow(mm, ix.Build.Total, ix.Build.SE.DominationTests)
	}
	tables = append(tables, tm)

	return tables
}

// --- formatting helpers ----------------------------------------------------

func durMS(d time.Duration) string {
	return fmt.Sprintf("%.3fms", float64(d.Nanoseconds())/1e6)
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
