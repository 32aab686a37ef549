package pnnq

import (
	"sort"
	"sync"
	"testing"

	"pvoronoi/internal/bruteforce"
	"pvoronoi/internal/dataset"
	"pvoronoi/internal/geom"
	"pvoronoi/internal/race"
	"pvoronoi/internal/uncertain"
)

// The benchmark inputs are real Step-1 output: the possible-NN sets of
// uniform query points over the two datasets the end-to-end harness serves
// (benchmark/spec.go: uni2 = 8000 objects, d 2, side ≤ 60, 100 instances;
// uni3 = 3000 objects, d 3, side ≤ 400, 200 instances), so candidate counts,
// instance counts and how far the pdfs interleave are the served ones.
type benchSet struct {
	q     geom.Point
	cands []CandidateData
}

const (
	benchQueries = 64
	benchKNN     = 8 // the harness's k for /v1/possibleknn
)

var (
	uni2Params = dataset.SyntheticParams{N: 8000, Dim: 2, MaxSide: 60, Instances: 100, Seed: 1}
	uni3Params = dataset.SyntheticParams{N: 3000, Dim: 3, MaxSide: 400, Instances: 200, Seed: 1}

	benchOnce                 sync.Once
	benchD2, benchD3, benchK2 []benchSet
)

func benchSets() {
	benchOnce.Do(func() {
		db2, db3 := dataset.Synthetic(uni2Params), dataset.Synthetic(uni3Params)
		benchD2 = candidateSets(db2, func(q geom.Point) []uncertain.ID { return bruteforce.PossibleNN(db2, q) })
		benchD3 = candidateSets(db3, func(q geom.Point) []uncertain.ID { return bruteforce.PossibleNN(db3, q) })
		benchK2 = candidateSets(db2, func(q geom.Point) []uncertain.ID { return possibleKNN(db2, q, benchKNN) })
	})
}

func candidateSets(db *uncertain.DB, step1 func(geom.Point) []uncertain.ID) []benchSet {
	sets := make([]benchSet, 0, benchQueries)
	for _, q := range dataset.QueryPoints(db.Domain, benchQueries, 99) {
		set := benchSet{q: q}
		for _, id := range step1(q) {
			set.cands = append(set.cands, CandidateData{ID: id, Instances: db.Get(id).Instances})
		}
		sets = append(sets, set)
	}
	return sets
}

// possibleKNN is the scan filter of possible k-NN retrieval (mindist within
// the k-th smallest maxdist); extquery's own version cannot be imported from
// here without a cycle.
func possibleKNN(db *uncertain.DB, q geom.Point, k int) []uncertain.ID {
	objs := db.Objects()
	maxs := make([]float64, len(objs))
	for i, o := range objs {
		maxs[i] = o.MaxDist(q)
	}
	sort.Float64s(maxs)
	var ids []uncertain.ID
	for _, o := range objs {
		if o.MinDist(q) <= maxs[k-1] {
			ids = append(ids, o.ID)
		}
	}
	return ids
}

func scoredSets(sets []benchSet) [][]ScoredCandidate {
	out := make([][]ScoredCandidate, len(sets))
	for i, set := range sets {
		out[i] = toScored(set.cands, set.q, false)
	}
	return out
}

var benchSink int

func benchCompute(b *testing.B, sets []benchSet) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set := sets[i%len(sets)]
		benchSink += len(Compute(set.cands, set.q))
	}
}

func BenchmarkComputeD2(b *testing.B) { benchSets(); benchCompute(b, benchD2) }
func BenchmarkComputeD3(b *testing.B) { benchSets(); benchCompute(b, benchD3) }

func BenchmarkComputeScores(b *testing.B) {
	benchSets()
	scored := scoredSets(benchD3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += len(ComputeScores(scored[i%len(scored)]))
	}
}

func BenchmarkComputeKNN(b *testing.B) {
	benchSets()
	scored := scoredSets(benchK2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += len(ComputeKNN(scored[i%len(scored)], benchKNN))
	}
}

// Step 2 runs once per query on the read path: beyond the result slice it
// must allocate nothing (the scratch is pooled).
func TestComputeAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	benchSets()
	nn, knn := benchD3[0], scoredSets(benchK2[:1])[0]
	scored := scoredSets(benchD3[:1])[0]
	for name, fn := range map[string]func(){
		"Compute":       func() { Compute(nn.cands, nn.q) },
		"ComputeScores": func() { ComputeScores(scored) },
		"ComputeKNN":    func() { ComputeKNN(knn, benchKNN) },
	} {
		if got := testing.AllocsPerRun(50, fn); got > 2 {
			t.Errorf("%s: %.0f allocs per call, budget 2", name, got)
		}
	}
}
