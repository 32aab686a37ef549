package extquery

import (
	"fmt"
	"math/rand"
	"testing"

	"pvoronoi/internal/core"
	"pvoronoi/internal/geom"
	"pvoronoi/internal/rtree"
	"pvoronoi/internal/uncertain"
)

// clusteredDB generates objects packed into Gaussian clusters, the adversarial
// layout for branch-and-bound pruning (deep overlap inside clusters, huge
// empty gaps between them).
func clusteredDB(rng *rand.Rand, n, d int, span, maxSide float64, instances int) *uncertain.DB {
	db := uncertain.NewDB(geom.UnitCube(d, span))
	k := 8
	centers := make([]geom.Point, k)
	for i := range centers {
		c := make(geom.Point, d)
		for j := range c {
			c[j] = span * (0.1 + 0.8*rng.Float64())
		}
		centers[i] = c
	}
	sigma := span / 25
	for i := 0; i < n; i++ {
		c := centers[rng.Intn(k)]
		lo := make(geom.Point, d)
		hi := make(geom.Point, d)
		for j := 0; j < d; j++ {
			v := c[j] + rng.NormFloat64()*sigma
			if v < 0 {
				v = 0
			}
			if v > span-maxSide {
				v = span - maxSide
			}
			lo[j] = v
			hi[j] = v + 1 + rng.Float64()*(maxSide-1)
		}
		o := &uncertain.Object{ID: uncertain.ID(i), Region: geom.Rect{Lo: lo, Hi: hi}}
		if instances > 0 {
			o.Instances = uncertain.SampleInstances(o.Region, uncertain.PDFUniform, instances, rng)
		}
		_ = db.Add(o)
	}
	return db
}

func regionTreeOf(db *uncertain.DB) *rtree.Tree {
	return core.BuildRegionTree(db, 16) // small fanout: deeper trees, more pruning decisions
}

func idsEqual(a, b []uncertain.ID) bool {
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

// testDBs yields the randomized database mix the tree paths must match the
// scans on: uniform and clustered layouts, with and without pdf instances.
func testDBs(t *testing.T, seed int64, n, d int, span, maxSide float64) map[string]*uncertain.DB {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	return map[string]*uncertain.DB{
		"uniform":             randomDB(rng, n, d, span, maxSide, 0),
		"uniform+instances":   randomDB(rng, n, d, span, maxSide, 8),
		"clustered":           clusteredDB(rng, n, d, span, maxSide, 0),
		"clustered+instances": clusteredDB(rng, n, d, span, maxSide, 8),
	}
}

func TestGroupNNCandidatesTreeMatchesScan(t *testing.T) {
	for name, db := range testDBs(t, 101, 150, 2, 1000, 40) {
		tree := regionTreeOf(db)
		rng := rand.New(rand.NewSource(102))
		for iter := 0; iter < 40; iter++ {
			g := 1 + rng.Intn(4)
			qs := make([]geom.Point, g)
			for i := range qs {
				qs[i] = geom.Point{rng.Float64() * 1000, rng.Float64() * 1000}
			}
			for _, agg := range []Agg{AggSum, AggMax} {
				want := GroupNNCandidates(db, qs, agg)
				got, cost := GroupNNCandidatesTree(tree, qs, agg)
				if !idsEqual(got, want) {
					t.Fatalf("%s iter %d agg=%d: tree %v != scan %v", name, iter, agg, got, want)
				}
				if len(want) > 0 && cost.Leaves == 0 {
					t.Fatalf("%s: tree retrieval reported no leaf accesses", name)
				}
			}
		}
	}
}

func TestKNNCandidatesTreeMatchesScan(t *testing.T) {
	for name, db := range testDBs(t, 201, 150, 3, 1000, 40) {
		tree := regionTreeOf(db)
		rng := rand.New(rand.NewSource(202))
		for iter := 0; iter < 40; iter++ {
			q := geom.Point{rng.Float64() * 1000, rng.Float64() * 1000, rng.Float64() * 1000}
			for _, k := range []int{1, 2, 5, 16, 1000} {
				want := KNNCandidates(db, q, k)
				got, _ := KNNCandidatesTree(tree, q, k)
				if !idsEqual(got, want) {
					t.Fatalf("%s iter %d k=%d: tree %v != scan %v", name, iter, k, got, want)
				}
			}
		}
	}
}

func TestRNNCandidatesTreeMatchesScan(t *testing.T) {
	for name, db := range testDBs(t, 301, 120, 2, 1000, 35) {
		tree := regionTreeOf(db)
		rng := rand.New(rand.NewSource(302))
		for iter := 0; iter < 30; iter++ {
			q := geom.Point{rng.Float64() * 1000, rng.Float64() * 1000}
			for _, depth := range []int{0, 4, 10} {
				want := RNNCandidates(db, q, depth)
				got, _ := RNNCandidatesTree(tree, q, depth)
				if !idsEqual(got, want) {
					t.Fatalf("%s iter %d depth=%d: tree %v != scan %v", name, iter, depth, got, want)
				}
			}
		}
	}
}

// The tree RNN path must also stay a superset of the instance-level oracle.
func TestRNNCandidatesTreeCoverOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	db := randomDB(rng, 60, 2, 600, 30, 15)
	tree := regionTreeOf(db)
	for iter := 0; iter < 30; iter++ {
		q := geom.Point{rng.Float64() * 600, rng.Float64() * 600}
		got, _ := RNNCandidatesTree(tree, q, 10)
		cands := map[uncertain.ID]bool{}
		for _, id := range got {
			cands[id] = true
		}
		for _, id := range RNNBruteForce(db, q) {
			if !cands[id] {
				t.Fatalf("oracle RNN %d missing from tree candidates at %v", id, q)
			}
		}
	}
}

// The tree paths must keep matching the scans while the tree mutates —
// the serving pattern after inserts and deletes.
func TestTreeCandidatesAfterChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(501))
	db := randomDB(rng, 100, 2, 800, 30, 0)
	tree := regionTreeOf(db)
	for round := 0; round < 5; round++ {
		// Remove a third of the objects, insert replacements.
		objs := append([]*uncertain.Object(nil), db.Objects()...)
		for i, o := range objs {
			if i%3 != round%3 {
				continue
			}
			if !tree.Delete(rtree.Item{Rect: o.Region, ID: uint32(o.ID)}) {
				t.Fatalf("round %d: delete of %d failed", round, o.ID)
			}
			if _, err := db.Remove(o.ID); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 20; i++ {
			id := uncertain.ID(1000 + round*100 + i)
			lo := geom.Point{rng.Float64() * 770, rng.Float64() * 770}
			o := &uncertain.Object{ID: id, Region: geom.NewRect(lo, geom.Point{lo[0] + 5 + rng.Float64()*25, lo[1] + 5 + rng.Float64()*25})}
			if err := db.Add(o); err != nil {
				t.Fatal(err)
			}
			tree.Insert(rtree.Item{Rect: o.Region, ID: uint32(o.ID)})
		}
		q := geom.Point{rng.Float64() * 800, rng.Float64() * 800}
		qs := []geom.Point{q, {rng.Float64() * 800, rng.Float64() * 800}}
		if want := GroupNNCandidates(db, qs, AggSum); true {
			got, _ := GroupNNCandidatesTree(tree, qs, AggSum)
			if !idsEqual(got, want) {
				t.Fatalf("round %d groupnn: tree %v != scan %v", round, got, want)
			}
		}
		if want := KNNCandidates(db, q, 3); true {
			got, _ := KNNCandidatesTree(tree, q, 3)
			if !idsEqual(got, want) {
				t.Fatalf("round %d knn: tree %v != scan %v", round, got, want)
			}
		}
		if want := RNNCandidates(db, q, 10); true {
			got, _ := RNNCandidatesTree(tree, q, 10)
			if !idsEqual(got, want) {
				t.Fatalf("round %d rnn: tree %v != scan %v", round, got, want)
			}
		}
	}
}

func TestTreeCandidatesEmptyInputs(t *testing.T) {
	db := uncertain.NewDB(geom.UnitCube(2, 100))
	tree := regionTreeOf(db)
	if got, _ := GroupNNCandidatesTree(tree, []geom.Point{{1, 1}}, AggSum); got != nil {
		t.Fatal("empty tree should yield nil")
	}
	if got, _ := KNNCandidatesTree(tree, geom.Point{1, 1}, 3); got != nil {
		t.Fatal("empty tree should yield nil")
	}
	if got, _ := RNNCandidatesTree(tree, geom.Point{1, 1}, 10); got != nil {
		t.Fatal("empty tree should yield nil")
	}
	_ = db.Add(&uncertain.Object{ID: 1, Region: geom.NewRect(geom.Point{1, 1}, geom.Point{2, 2})})
	tree = regionTreeOf(db)
	if got, _ := GroupNNCandidatesTree(tree, nil, AggSum); got != nil {
		t.Fatal("empty group should yield nil")
	}
	if got, _ := KNNCandidatesTree(tree, geom.Point{1, 1}, 0); got != nil {
		t.Fatal("k=0 should yield nil")
	}
	if got, _ := GroupNNCandidatesTree(nil, []geom.Point{{1, 1}}, AggSum); got != nil {
		t.Fatal("nil tree should yield nil")
	}
}

// Edge cases of the k-NN and group-NN retrievals: an empty or nil tree, a
// single object, and k = 0.
func TestGraphQueriesEdgeCases(t *testing.T) {
	q := geom.Point{10, 10}

	// Empty tree / nil inputs.
	if got, _ := KNNCandidatesTree(nil, q, 3); got != nil {
		t.Fatalf("nil tree returned %v", got)
	}
	db := uncertain.NewDB(geom.UnitCube(2, 100))
	if got, _ := KNNCandidatesTree(regionTreeOf(db), q, 3); got != nil {
		t.Fatalf("empty tree returned %v", got)
	}

	// Single object: it is the only candidate, wherever the query is.
	_ = db.Add(&uncertain.Object{ID: 1, Region: geom.NewRect(geom.Point{1, 1}, geom.Point{2, 2})})
	tree := regionTreeOf(db)
	for _, q := range []geom.Point{{1.5, 1.5}, {10, 10}, {-500, 1e6}} {
		for _, k := range []int{1, 4} {
			if got, _ := KNNCandidatesTree(tree, q, k); !idsEqual(got, KNNCandidates(db, q, k)) || len(got) != 1 {
				t.Fatalf("single object k=%d at %v: %v", k, q, got)
			}
		}
		for _, agg := range []Agg{AggSum, AggMax} {
			qs := []geom.Point{q, {50, 50}}
			if got, _ := GroupNNCandidatesTree(tree, qs, agg); !idsEqual(got, GroupNNCandidates(db, qs, agg)) || len(got) != 1 {
				t.Fatalf("single object group %v agg=%d: %v", qs, agg, got)
			}
		}
	}

	// k <= 0 yields nothing.
	for _, k := range []int{0, -1} {
		if got, _ := KNNCandidatesTree(tree, q, k); got != nil {
			t.Fatalf("k=%d returned %v", k, got)
		}
	}
}

// Groups whose points lie far apart — far enough that distances, their sums
// or the group's centroid overflow — still retrieve the scan's set: the
// tree needs no anchor point, so nothing about the group has to be finite
// beyond its own coordinates.
func TestGroupNNTreeFarApartGroups(t *testing.T) {
	for name, db := range testDBs(t, 15, 60, 2, 800, 30) {
		tree := regionTreeOf(db)
		for _, qs := range [][]geom.Point{
			{{1e200, 1e200}, {5000, 5000}},
			{{1e308, 1e308}, {-1e308, -1e308}},
			{{1e308, 1e308}, {1e308, 1e308}},
			{{-1e308, 0}, {-1e308, 5}, {-1e308, 3}},
			{{1e154, 400}, {400, 400}, {-1e154, 1e154}},
			{{0, 0}, {800, 800}, {0, 800}, {800, 0}},
		} {
			for _, agg := range []Agg{AggSum, AggMax} {
				want := GroupNNCandidates(db, qs, agg)
				got, _ := GroupNNCandidatesTree(tree, qs, agg)
				if !idsEqual(got, want) || len(got) == 0 {
					t.Fatalf("%s %v agg=%d: tree %v != scan %v", name, qs, agg, got, want)
				}
			}
		}
	}
}

// Sanity: at serving scale the tree path must beat the scan on touched work
// (pruned subtrees), which shows up as leaf accesses well below the leaf
// count of a full walk.
func TestTreeRetrievalPrunes(t *testing.T) {
	rng := rand.New(rand.NewSource(601))
	db := randomDB(rng, 2000, 2, 10000, 40, 0)
	tree := regionTreeOf(db)
	full, fullCost := tree.Search(db.Domain, nil)
	if len(full) != 2000 {
		t.Fatalf("tree holds %d items", len(full))
	}
	var worst rtree.Cost
	for iter := 0; iter < 20; iter++ {
		q := geom.Point{rng.Float64() * 10000, rng.Float64() * 10000}
		_, c1 := GroupNNCandidatesTree(tree, []geom.Point{q}, AggSum)
		_, c2 := KNNCandidatesTree(tree, q, 4)
		if c1.Leaves > worst.Leaves {
			worst = c1
		}
		if c2.Leaves > worst.Leaves {
			worst = c2
		}
	}
	if worst.Leaves*4 > fullCost.Leaves {
		t.Fatalf("branch-and-bound touched %d of %d leaves — no pruning", worst.Leaves, fullCost.Leaves)
	}
}

func BenchmarkGroupNNCandidates(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		rng := rand.New(rand.NewSource(1))
		db := randomDB(rng, n, 2, 10000, 40, 0)
		tree := regionTreeOf(db)
		qs := []geom.Point{{2500, 2500}, {2600, 2400}, {2550, 2700}}
		b.Run(fmt.Sprintf("scan-%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				GroupNNCandidates(db, qs, AggSum)
			}
		})
		b.Run(fmt.Sprintf("tree-%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				GroupNNCandidatesTree(tree, qs, AggSum)
			}
		})
	}
}
