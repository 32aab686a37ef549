package extquery

import (
	"math"
	"math/rand"
	"testing"

	"pvoronoi/internal/adjgraph"
	"pvoronoi/internal/core"
	"pvoronoi/internal/geom"
	"pvoronoi/internal/uncertain"
)

// buildAdjGraph materializes the UBR-adjacency graph for db the slow, obvious
// way: SE per object, then a double loop over UBR intersections. The pvindex
// maintains the same relation incrementally; here the brute-force build is
// the ground truth for the expansion algorithms alone.
func buildAdjGraph(t *testing.T, db *uncertain.DB) *adjgraph.Graph {
	t.Helper()
	tree := core.BuildRegionTree(db, 16)
	opts := core.DefaultOptions()
	objs := db.Objects()
	ubrs := make(map[uint32]geom.Rect, len(objs))
	for _, o := range objs {
		ubr, _ := core.ComputeUBR(db, tree, o, opts)
		ubrs[uint32(o.ID)] = ubr
	}
	g := adjgraph.New()
	for _, o := range objs {
		id := uint32(o.ID)
		ubr := ubrs[id]
		var ns []uint32
		for nid, nubr := range ubrs {
			if nid != id && ubr.Intersects(nubr) {
				ns = append(ns, nid)
			}
		}
		g.Set(id, ubr, geom.Dist(o.Region.Lo, o.Region.Hi), ns)
	}
	return g
}

// seedsAt returns the IDs whose UBR contains p. UBRs cover the domain (each
// contains its PV-cell and the cells cover everything), so for in-domain p
// this is never empty — it is the graph analogue of an octree point query.
func seedsAt(g *adjgraph.Graph, p geom.Point) []uint32 {
	var seeds []uint32
	g.ForEach(func(id uint32, row *adjgraph.Row) bool {
		if row.UBR.Contains(p) {
			seeds = append(seeds, id)
		}
		return true
	})
	return seeds
}

func sameIDSlices(a, b []uncertain.ID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestKNNGraphMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	dbs := map[string]*uncertain.DB{
		"uniform":   randomDB(rng, 120, 2, 800, 30, 0),
		"clustered": clusteredDB(rng, 120, 2, 800, 25, 0),
	}
	for name, db := range dbs {
		g := buildAdjGraph(t, db)
		for iter := 0; iter < 30; iter++ {
			q := geom.Point{rng.Float64() * 800, rng.Float64() * 800}
			for _, k := range []int{1, 2, 4, 8, 16, db.Len() + 5} {
				want := KNNCandidates(db, q, k)
				got, cost := KNNCandidatesGraph(db, g, seedsAt(g, q), q, k)
				if !sameIDSlices(got, want) {
					t.Fatalf("%s k=%d q=%v: graph %v != scan %v", name, k, q, got, want)
				}
				if len(want) > 0 && (cost.Nodes == 0 || cost.Edges == 0) {
					t.Fatalf("%s k=%d: nonempty result with zero cost %+v", name, k, cost)
				}
			}
		}
	}
}

func TestGroupNNGraphMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	dbs := map[string]*uncertain.DB{
		"uniform":   randomDB(rng, 100, 2, 800, 30, 0),
		"clustered": clusteredDB(rng, 100, 2, 800, 25, 0),
	}
	for name, db := range dbs {
		g := buildAdjGraph(t, db)
		for iter := 0; iter < 20; iter++ {
			for _, gs := range []int{1, 3, 5} {
				qs := make([]geom.Point, gs)
				for i := range qs {
					qs[i] = geom.Point{rng.Float64() * 800, rng.Float64() * 800}
				}
				for _, agg := range []Agg{AggSum, AggMax} {
					anchor := GroupAnchor(qs, agg)
					want := GroupNNCandidates(db, qs, agg)
					got, _ := GroupNNCandidatesGraph(db, g, seedsAt(g, anchor), anchor, qs, agg)
					if !sameIDSlices(got, want) {
						t.Fatalf("%s |Q|=%d agg=%v: graph %v != scan %v", name, gs, agg, got, want)
					}
				}
			}
		}
	}
}

// Exactness must not depend on anchor quality: even a terrible anchor (a
// domain corner) yields the same candidate set, just with more work.
func TestGroupNNGraphAnchorIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	db := randomDB(rng, 80, 2, 600, 30, 0)
	g := buildAdjGraph(t, db)
	for iter := 0; iter < 15; iter++ {
		qs := []geom.Point{
			{rng.Float64() * 600, rng.Float64() * 600},
			{rng.Float64() * 600, rng.Float64() * 600},
			{rng.Float64() * 600, rng.Float64() * 600},
		}
		for _, agg := range []Agg{AggSum, AggMax} {
			want := GroupNNCandidates(db, qs, agg)
			bad := geom.Point{0, 0}
			got, _ := GroupNNCandidatesGraph(db, g, seedsAt(g, bad), bad, qs, agg)
			if !sameIDSlices(got, want) {
				t.Fatalf("agg=%v bad anchor: graph %v != scan %v", agg, got, want)
			}
		}
	}
}

// Regression: query points far enough apart overflow the squared distances
// (Weiszfeld weights 0/0) or the centroid itself, and the anchor came out NaN
// or infinite — which the index rejects as a bad query point. The anchor is
// finite for every finite group, and the retrieval from it is the scan's.
func TestGroupAnchorIsFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	db := randomDB(rng, 60, 2, 800, 30, 0)
	g := buildAdjGraph(t, db)
	for _, qs := range [][]geom.Point{
		{{1e200, 1e200}, {5000, 5000}},
		{{1e308, 1e308}, {-1e308, -1e308}},
		{{1e308, 1e308}, {1e308, 1e308}},
		{{-1e308, 0}, {-1e308, 5}, {-1e308, 3}},
		{{1e154, 400}, {400, 400}, {-1e154, 1e154}},
		{{math.Inf(1), math.NaN()}, {400, 400}},
	} {
		for _, agg := range []Agg{AggSum, AggMax} {
			anchor := GroupAnchor(qs, agg)
			if !anchor.IsFinite() {
				t.Fatalf("GroupAnchor(%v, %v) = %v", qs, agg, anchor)
			}
			if !qs[0].IsFinite() {
				continue
			}
			start := make(geom.Point, len(anchor)) // the index seeds at the anchor clamped into the domain
			for j := range anchor {
				start[j] = min(max(anchor[j], db.Domain.Lo[j]), db.Domain.Hi[j])
			}
			want := GroupNNCandidates(db, qs, agg)
			got, _ := GroupNNCandidatesGraph(db, g, seedsAt(g, start), anchor, qs, agg)
			if !sameIDSlices(got, want) {
				t.Fatalf("%v agg=%v: graph %v != scan %v", qs, agg, got, want)
			}
		}
	}
}

func TestGraphQueriesEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	q := geom.Point{10, 10}

	// Empty graph / nil inputs.
	if ids, _ := KNNCandidatesGraph(nil, adjgraph.New(), nil, q, 3); ids != nil {
		t.Fatalf("nil db returned %v", ids)
	}
	db := randomDB(rng, 5, 2, 100, 10, 0)
	if ids, _ := KNNCandidatesGraph(db, adjgraph.New(), nil, q, 3); ids != nil {
		t.Fatalf("empty graph returned %v", ids)
	}
	if ids, _ := KNNCandidatesGraph(db, nil, nil, q, 3); ids != nil {
		t.Fatalf("nil graph returned %v", ids)
	}

	// Single object: its UBR is the whole domain; it is the only candidate.
	solo := uncertain.NewDB(geom.UnitCube(2, 100))
	_ = solo.Add(&uncertain.Object{ID: 0, Region: geom.NewRect(geom.Point{40, 40}, geom.Point{50, 50})})
	sg := buildAdjGraph(t, solo)
	got, _ := KNNCandidatesGraph(solo, sg, seedsAt(sg, q), q, 4)
	if !sameIDSlices(got, KNNCandidates(solo, q, 4)) {
		t.Fatalf("single object: %v", got)
	}
	gotG, _ := GroupNNCandidatesGraph(solo, sg, seedsAt(sg, q), q, []geom.Point{q}, AggSum)
	if !sameIDSlices(gotG, GroupNNCandidates(solo, []geom.Point{q}, AggSum)) {
		t.Fatalf("single object group: %v", gotG)
	}

	// k <= 0 yields nothing.
	if ids, _ := KNNCandidatesGraph(db, sg, nil, q, 0); ids != nil {
		t.Fatalf("k=0 returned %v", ids)
	}
}
