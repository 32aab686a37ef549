package bench

import (
	"time"

	"pvoronoi/internal/dataset"
	"pvoronoi/internal/geom"
	"pvoronoi/internal/pvindex"
	"pvoronoi/internal/stats"
	"pvoronoi/internal/uncertain"
)

// AblationMemBudget measures how the primary index's non-leaf memory budget
// trades main memory for query I/O: a starved octree cannot split leaves and
// must chain pages, driving up the per-query page reads. This isolates the
// design choice behind the paper's 5 MB default.
func AblationMemBudget(p Params) *stats.Table {
	n := p.n(60000)
	db := synthetic(p, n, 3, 60)
	queries := dataset.QueryPoints(db.Domain, p.Queries, p.Seed+100)
	tab := stats.NewTable("Ablation: octree memory budget vs query cost  (|S|=60k scaled, d=3)",
		"budget (KB)", "leaves", "pages", "IO/query", "Tq")
	for _, budget := range []int{1 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 5 << 20} {
		cfg := pvindex.DefaultConfig()
		cfg.MemBudget = budget
		ix, err := pvindex.Build(db, cfg)
		if err != nil {
			panic(err)
		}
		cost := measure(db, queries, pvStep1(ix))
		ps := ix.PrimaryStats()
		tab.AddRow(budget/1024, ps.Leaves, ps.Pages, cost.IO, cost.Total())
		p.logf("ablation-mem: budget=%dKB done\n", budget/1024)
	}
	return tab
}

// AblationPrimaryIndex compares the chosen octree primary index against the
// R-tree alternative the paper rejects in §VI-A footnote 3: overlapping
// R-tree node regions force a point query to descend several subtrees,
// while octree cells tile space and a query reads exactly one leaf chain.
func AblationPrimaryIndex(p Params) *stats.Table {
	n := p.n(60000)
	db := synthetic(p, n, 3, 60)
	queries := dataset.QueryPoints(db.Domain, p.Queries, p.Seed+100)
	ix := buildPV(db, defaultStrategy)

	octreeCost := measure(db, queries, pvStep1(ix))

	rp := pvindex.NewRTreePrimary(ix, 100)
	rtreeCost := measure(db, queries, func(q geom.Point) ([]uncertain.ID, int) {
		cs, io := rp.PossibleNN(q)
		return candidateIDs(cs), io
	})

	tab := stats.NewTable("Ablation: primary index — octree vs R-tree over UBRs  (§VI-A fn.3)",
		"primary", "T_OR", "IO/query")
	tab.AddRow("octree", octreeCost.OR, octreeCost.IO)
	tab.AddRow("R-tree", rtreeCost.OR, rtreeCost.IO)
	return tab
}

// AblationParallelBuild measures construction scaling with SE workers — the
// bulk-loading direction from the paper's conclusion. UBR computation is
// embarrassingly parallel; insertion serializes, bounding the speedup.
func AblationParallelBuild(p Params) *stats.Table {
	n := p.n(60000)
	db := synthetic(p, n, 3, 60)
	tab := stats.NewTable("Ablation: parallel construction  (|S|=60k scaled, d=3, IS)",
		"workers", "Tc", "speedup")
	var base time.Duration
	for _, workers := range []int{1, 2, 4, 8} {
		cfg := pvindex.DefaultConfig()
		ix, err := pvindex.BuildParallel(db, cfg, workers)
		if err != nil {
			panic(err)
		}
		if workers == 1 {
			base = ix.Build.Total
		}
		tab.AddRow(workers, ix.Build.Total, ratio(base, ix.Build.Total))
		p.logf("ablation-parallel: workers=%d done\n", workers)
	}
	return tab
}
