package bench

import (
	"fmt"
	"time"

	"pvoronoi/internal/dataset"
	"pvoronoi/internal/stats"
	"pvoronoi/internal/uvindex"
)

// Fig9a: query time Tq vs database size |S| — R-tree vs PV-index, d=3.
// Paper: PV-index 38–40% faster across the sweep.
func Fig9a(p Params) *stats.Table {
	tab := stats.NewTable("Fig 9(a): Tq vs |S|  (d=3, |u(o)|=60)",
		"|S|", "Tq R-tree", "Tq PV-index", "PV speedup")
	for _, n := range p.sweepSizes() {
		db := synthetic(p, n, 3, 60)
		queries := dataset.QueryPoints(db.Domain, p.Queries, p.Seed+100)
		tree := buildRTree(db)
		pv := buildPV(db, defaultStrategy)
		rc := measure(db, queries, rtreeStep1(tree))
		pc := measure(db, queries, pvStep1(pv))
		tab.AddRow(n, rc.Total(), pc.Total(), ratio(rc.Total(), pc.Total()))
		p.logf("fig9a: |S|=%d done\n", n)
	}
	return tab
}

// Fig9b: the composition of Tq — object retrieval (OR) vs probability
// computation (PC) at the default setting. Paper: PC equal for both; PV's OR
// about 1/6 of the R-tree's.
func Fig9b(p Params) *stats.Table {
	n := p.n(60000)
	db := synthetic(p, n, 3, 60)
	queries := dataset.QueryPoints(db.Domain, p.Queries, p.Seed+100)
	tree := buildRTree(db)
	pv := buildPV(db, defaultStrategy)
	rc := measure(db, queries, rtreeStep1(tree))
	pc := measure(db, queries, pvStep1(pv))
	tab := stats.NewTable("Fig 9(b): Tq composition  (|S|=60k scaled, d=3)",
		"method", "OR", "PC", "total", "OR share")
	tab.AddRow("R-tree", rc.OR, rc.PC, rc.Total(), share(rc.OR, rc.Total()))
	tab.AddRow("PV-index", pc.OR, pc.PC, pc.Total(), share(pc.OR, pc.Total()))
	return tab
}

// Fig9c: query I/O (leaf page accesses) vs |S|. Paper: PV-index ≈20% of the
// R-tree's leaf I/O.
func Fig9c(p Params) *stats.Table {
	tab := stats.NewTable("Fig 9(c): query I/O vs |S|  (leaf pages/query)",
		"|S|", "IO R-tree", "IO PV-index", "PV/RTree")
	for _, n := range p.sweepSizes() {
		db := synthetic(p, n, 3, 60)
		queries := dataset.QueryPoints(db.Domain, p.Queries, p.Seed+100)
		tree := buildRTree(db)
		pv := buildPV(db, defaultStrategy)
		rc := measure(db, queries, rtreeStep1(tree))
		pc := measure(db, queries, pvStep1(pv))
		tab.AddRow(n, rc.IO, pc.IO, pc.IO/maxf(rc.IO, 1e-9))
		p.logf("fig9c: |S|=%d done\n", n)
	}
	return tab
}

// Fig9d: Tq vs uncertainty-region size |u(o)|. Paper: Tq grows with |u(o)|
// for both; PV-index consistently faster.
func Fig9d(p Params) *stats.Table {
	n := p.n(60000)
	tab := stats.NewTable("Fig 9(d): Tq vs |u(o)|  (|S|=60k scaled, d=3)",
		"|u(o)|", "Tq R-tree", "Tq PV-index", "PV speedup")
	for _, uo := range []float64{20, 40, 60, 80, 100} {
		db := synthetic(p, n, 3, uo)
		queries := dataset.QueryPoints(db.Domain, p.Queries, p.Seed+100)
		tree := buildRTree(db)
		pv := buildPV(db, defaultStrategy)
		rc := measure(db, queries, rtreeStep1(tree))
		pc := measure(db, queries, pvStep1(pv))
		tab.AddRow(uo, rc.Total(), pc.Total(), ratio(rc.Total(), pc.Total()))
		p.logf("fig9d: |u(o)|=%g done\n", uo)
	}
	return tab
}

// dimSweep runs the d ∈ {2,3,4,5} sweep shared by Figs. 9(e)–9(g).
type dimRow struct {
	d          int
	rt, pv, uv queryCost
	hasUV      bool
}

// dimCache memoizes the sweep so fig9e/f/g in one harness run share it.
var dimCache = map[string][]dimRow{}

func dimSweep(p Params) []dimRow {
	key := fmt.Sprintf("%g/%d/%d/%d", p.Scale, p.Queries, p.Instances, p.Seed)
	if rows, ok := dimCache[key]; ok {
		return rows
	}
	n := p.n(60000)
	var rows []dimRow
	for _, d := range []int{2, 3, 4, 5} {
		db := synthetic(p, n, d, 60)
		queries := dataset.QueryPoints(db.Domain, p.Queries, p.Seed+100)
		row := dimRow{d: d}
		tree := buildRTree(db)
		row.rt = measure(db, queries, rtreeStep1(tree))
		pv := buildPV(db, defaultStrategy)
		row.pv = measure(db, queries, pvStep1(pv))
		if d == 2 {
			uv, err := uvindex.Build(db, uvindex.DefaultConfig())
			if err == nil {
				row.uv = measure(db, queries, uvStep1(uv))
				row.hasUV = true
			}
		}
		rows = append(rows, row)
		p.logf("dim sweep: d=%d done\n", d)
	}
	dimCache[key] = rows
	return rows
}

// Fig9e: Tq vs dimensionality (UV-index at d=2 only). Paper: PV 20–40%
// faster than R-tree; Tq minimal at d=3; UV ≈ PV at d=2.
func Fig9e(p Params) *stats.Table {
	tab := stats.NewTable("Fig 9(e): Tq vs d  (|S|=60k scaled)",
		"d", "Tq R-tree", "Tq PV-index", "Tq UV-index")
	for _, r := range dimSweep(p) {
		uv := "-"
		if r.hasUV {
			uv = durMS(r.uv.Total())
		}
		tab.AddRow(r.d, r.rt.Total(), r.pv.Total(), uv)
	}
	return tab
}

// Fig9f: the OR component vs dimensionality. Paper: TOR grows with d and
// dominates Tq for d >= 3 on the R-tree.
func Fig9f(p Params) *stats.Table {
	tab := stats.NewTable("Fig 9(f): T_OR vs d  (|S|=60k scaled)",
		"d", "T_OR R-tree", "T_OR PV-index", "T_OR UV-index")
	for _, r := range dimSweep(p) {
		uv := "-"
		if r.hasUV {
			uv = durMS(r.uv.OR)
		}
		tab.AddRow(r.d, r.rt.OR, r.pv.OR, uv)
	}
	return tab
}

// Fig9g: query I/O vs dimensionality.
func Fig9g(p Params) *stats.Table {
	tab := stats.NewTable("Fig 9(g): query I/O vs d  (leaf pages/query)",
		"d", "IO R-tree", "IO PV-index", "IO UV-index")
	for _, r := range dimSweep(p) {
		uv := "-"
		if r.hasUV {
			uv = f3(r.uv.IO)
		}
		tab.AddRow(r.d, r.rt.IO, r.pv.IO, uv)
	}
	return tab
}

// Fig9h: Tq on the (simulated) real datasets. Paper: UV and PV ≈40% faster
// than the R-tree on 2-D data; PV 45% faster on the 3-D airports data.
func Fig9h(p Params) *stats.Table {
	tab := stats.NewTable("Fig 9(h): Tq on real datasets",
		"dataset", "Tq R-tree", "Tq UV-index", "Tq PV-index", "PV speedup")
	for _, kind := range []dataset.RealKind{dataset.Roads, dataset.RRLines, dataset.Airports} {
		db := dataset.Real(dataset.RealParams{
			Kind: kind, N: p.n(kind.Size()), Instances: p.Instances, Seed: p.Seed,
		})
		queries := dataset.QueryPoints(db.Domain, p.Queries, p.Seed+100)
		tree := buildRTree(db)
		rc := measure(db, queries, rtreeStep1(tree))
		pv := buildPV(db, defaultStrategy)
		pc := measure(db, queries, pvStep1(pv))
		uvCell := "-"
		if kind.Dim() == 2 {
			uv, err := uvindex.Build(db, uvindex.DefaultConfig())
			if err == nil {
				uvCost := measure(db, queries, uvStep1(uv))
				uvCell = durMS(uvCost.Total())
			}
		}
		tab.AddRow(kind.String(), rc.Total(), uvCell, pc.Total(), ratio(rc.Total(), pc.Total()))
		p.logf("fig9h: %s done\n", kind)
	}
	return tab
}

// --- small formatting helpers ---------------------------------------------

func ratio(a, b time.Duration) string {
	if b == 0 {
		return "-"
	}
	return f2(float64(a) / float64(b))
}

func share(part, whole time.Duration) string {
	if whole == 0 {
		return "-"
	}
	return f2(float64(part)/float64(whole)*100) + "%"
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
