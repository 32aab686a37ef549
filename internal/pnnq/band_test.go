package pnnq

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"pvoronoi/internal/geom"
	"pvoronoi/internal/race"
	"pvoronoi/internal/uncertain"
)

// The kernel evaluates only the band between the floor ((k+1)-th smallest
// per-candidate minimum) and the cutoff (k-th smallest maximum), over the
// rivals in play, after a distribution sort. These tests sit on the three
// boundaries; each case is held to reference_test.go like the corpus is.

func sc(id uncertain.ID, scores ...float64) ScoredCandidate {
	return ScoredCandidate{ID: id, Scores: scores}
}

// checkScored holds ComputeKNN at every k, and ComputeScores, to the reference.
func checkScored(t *testing.T, name string, cands []ScoredCandidate, ks ...int) {
	t.Helper()
	sameResults(t, name+": ComputeScores", ComputeScores(cands), refComputeScores(cands), -1)
	for _, k := range ks {
		sameResults(t, fmt.Sprintf("%s: ComputeKNN k=%d", name, k), ComputeKNN(cands, k), refComputeKNN(cands, k), -1)
	}
}

// The floor is strict: an entry at F may tie with the rival whose minimum
// defines F. A floor at s <= F gives every entry at F its full weight and
// fails the first two cases.
func TestFloorBoundary(t *testing.T) {
	// k = 1: F, the second smallest minimum, is the shared global minimum: the
	// two nearest instances tie.
	shared := []ScoredCandidate{sc(1, 5, 9), sc(2, 5, 7), sc(3, 6, 8)}
	checkScored(t, "shared minimum", shared, 1, 2)
	if p := probsOf(ComputeScores(shared)); p[1] != 0.375 || p[2] != 0.5 || p[3] != 0.125 {
		t.Fatalf("shared minimum: %v", p)
	}

	// k = 2, three minima at F = 3: when all three realize 3 they share two
	// slots. At k = 3 the floor moves up to 10 and 7, 8, 9 lie below it.
	tiedAtF := []ScoredCandidate{sc(1, 3, 8), sc(2, 3, 9), sc(3, 3, 7), sc(4, 10, 11)}
	checkScored(t, "k minima tie at F", tiedAtF, 1, 2, 3)
	// One minimum below F = 3, two at it contesting the second slot.
	checkScored(t, "two minima tie at F", []ScoredCandidate{sc(1, 1, 8), sc(2, 3, 9), sc(3, 3, 7)}, 1, 2)

	// Zero-weight entries below F: they start (and can finish) their
	// candidate without carrying mass.
	zero := []ScoredCandidate{
		{ID: 1, Scores: []float64{1, 4, 6}, Weights: []float64{0, 0.5, 0.5}},
		{ID: 2, Scores: []float64{2, 3}, Weights: []float64{0, 0}},
		{ID: 3, Scores: []float64{5, 7}, Weights: []float64{0.5, 0.5}},
		{ID: 4, Scores: []float64{5, 9}, Weights: []float64{1, 0}},
	}
	checkScored(t, "zero weights below F", zero, 1, 2, 3)

	// Totals off 1 (and a zero one): an idle rival still weighs its total in
	// every evaluation and in every entry below F, until it starts.
	for _, last := range [][]float64{{0.3, 0.3}, {0, 0}} {
		checkScored(t, fmt.Sprintf("rival totals %v", last), []ScoredCandidate{
			{ID: 1, Scores: []float64{1, 6}, Weights: []float64{0.5, 0.5}},
			{ID: 2, Scores: []float64{2, 5}, Weights: []float64{0.25, 0.25}},
			{ID: 3, Scores: []float64{3, 7}, Weights: []float64{0.5, 0.5}},
			{ID: 4, Scores: []float64{4, 8}, Weights: last},
		}, 1, 2, 3)
	}

	// Region-only rivals leave fewer than k+1 minima: F = +∞, every finite
	// entry is below it and weighs all it has; an entry at +∞ is at F, not
	// below it.
	regionOnly := []ScoredCandidate{sc(1, 1, 4), sc(2, 2, 3), sc(3), sc(4)}
	checkScored(t, "region-only rivals, F = +Inf", regionOnly, 2, 3)
	if p := probsOf(ComputeKNN(regionOnly, 3)); p[1] != 1 || p[2] != 1 || len(p) != 2 {
		t.Fatalf("region-only rivals, k=3: %v", p)
	}
	checkScored(t, "instances at +Inf beside region-only rivals",
		[]ScoredCandidate{sc(1, 1, math.Inf(1)), sc(2, math.Inf(1)), sc(3), sc(4, 2)}, 1, 2, 3)
}

// A candidate lying entirely below F has taken its slot before the walk
// starts: the band's entries are evaluated over one slot and the rivals in
// play, never over the finished candidate.
func TestCandidateBelowFloorIsDoneBeforeTheWalk(t *testing.T) {
	cands := []ScoredCandidate{sc(1, 1, 2), sc(2, 5, 8), sc(3, 6, 9)}
	checkScored(t, "below F", cands, 2)
	s := scored(cands)
	got := probsOf(s.topk(2))
	if got[1] != 1 || got[2] != 0.75 || got[3] != 0.25 {
		t.Fatalf("got %v", got)
	}
	// F = 6: 5 lies below it too; 6 and 8 meet one rival in play each, over
	// k-done = 1 slot.
	if s.cells != 2 {
		t.Fatalf("%d DP cell updates, want 2", s.cells)
	}
}

// sortShapes are score sets of at least minDistribute entries that stress the
// bucket index: ranges it cannot scale, ranges it barely can, and scores that
// all land in one bucket.
func sortShapes() map[string][]float64 {
	rng := rand.New(rand.NewSource(20))
	shape := func(n int, f func(i int) float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = f(i)
		}
		return out
	}
	clustered := shape(200, func(int) float64 { return 1 + rng.Float64()*1e-9 })
	clustered[17] = 1e9
	return map[string][]float64{
		"uniform":         shape(200, func(int) float64 { return rng.Float64() * 100 }),
		"clustered":       clustered,
		"two clusters":    shape(200, func(i int) float64 { return float64(i%2)*1e6 + rng.Float64()*1e-6 }),
		"all equal":       shape(100, func(int) float64 { return 42 }),
		"all +Inf":        shape(100, func(int) float64 { return math.Inf(1) }),
		"some -Inf":       shape(100, func(i int) float64 { return []float64{math.Inf(-1), 1, 2}[i%3] }),
		"negative":        shape(200, func(int) float64 { return -rng.Float64() * 100 }),
		"few values":      shape(200, func(int) float64 { return float64(rng.Intn(5)) - 2 }),
		"overflowing":     shape(100, func(i int) float64 { return []float64{-1.7e308, 0, 1.7e308}[i%3] * rng.Float64() }),
		"wide":            shape(100, func(int) float64 { return (rng.Float64() - 0.5) * 1.6e308 }),
		"subnormal range": shape(100, func(i int) float64 { return float64(i%3) * 5e-324 }),
		"exponential":     shape(100, func(i int) float64 { return math.Ldexp(1, i) }),
	}
}

// The distribution sort gives the comparison sort's order on every shape.
func TestSortByScoreMatchesComparisonSort(t *testing.T) {
	for name, scores := range sortShapes() {
		ents := make([]Entry, len(scores))
		for i, v := range scores {
			ents[i] = Entry{Score: v, Weight: float64(i), cand: int32(i)}
		}
		want := slices.Clone(ents)
		compareSort(want)
		s := new(Sweep)
		for pass := 0; pass < 2; pass++ { // the second pass runs on dirty scratch
			got := s.sortByScore(slices.Clone(ents))
			seen := make([]bool, len(ents))
			for i, e := range got {
				if e.Score != want[i].Score {
					t.Fatalf("%s: position %d holds %g, comparison sort %g", name, i, e.Score, want[i].Score)
				}
				if seen[e.cand] || e.Weight != float64(e.cand) || scores[e.cand] != e.Score {
					t.Fatalf("%s: position %d holds %+v: not a permutation of the input", name, i, e)
				}
				seen[e.cand] = true
			}
		}
	}
}

// The same shapes through the entry points: scores dealt round-robin to five
// candidates, negative scores included (ComputeScores takes any aggregate).
func TestSortShapesMatchReference(t *testing.T) {
	for name, scores := range sortShapes() {
		cands := make([]ScoredCandidate, 5)
		for i := range cands {
			cands[i].ID = uncertain.ID(i)
		}
		for i, v := range scores {
			cands[i%5].Scores = append(cands[i%5].Scores, v)
		}
		checkScored(t, name, cands, 1, 2, 4)
	}
	// A query 1e200 away: every distance is +∞ and every candidate ties.
	far := geom.Point{1e200, 1e200}
	var cands []CandidateData
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 5; i++ {
		ins := make([]uncertain.Instance, 10)
		for j := range ins {
			ins[j] = uncertain.Instance{Pos: randomPoint(2, 0, 100, rng), Prob: 0.1}
		}
		cands = append(cands, CandidateData{ID: uncertain.ID(i), Instances: ins})
	}
	checkAgainstReference(t, "query 1e200 away", far, cands, []int{1, 2, 4}, true)
}

// A NaN score has no specified answer; it must not panic or hang.
func TestNaNScoreTerminates(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, nanAt := range []int{0, 57, 199} {
		cands := make([]ScoredCandidate, 5)
		for i := range cands {
			cands[i] = ScoredCandidate{ID: uncertain.ID(i), Scores: make([]float64, 40)}
			for j := range cands[i].Scores {
				cands[i].Scores[j] = rng.Float64() * 100
			}
		}
		cands[nanAt%5].Scores[nanAt/5] = math.NaN()
		ComputeScores(cands)
		for k := 1; k < 5; k++ {
			ComputeKNN(cands, k)
		}
	}
}

// Scores that cluster in one bucket must not cost more than a comparison
// sort: the clustered shape stays within 3x the uniform shape's time. The
// reps alternate between the shapes, so both minima see the same load, and
// each sort is timed on its thread's CPU clock: a wall clock charges a sort
// longer than the scheduler's time slice with the slice another process
// took, so on a busy host the clustered shape lost every rep to preemption
// while the shorter uniform one kept one rep clear of it.
func TestClusteredSortTime(t *testing.T) {
	if race.Enabled || testing.CoverMode() != "" || testing.Short() {
		t.Skip("timing is only meaningful uninstrumented")
	}
	if _, ok := threadCPU(); !ok {
		t.Skip("no per-thread CPU clock on this platform")
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	const n = 100000
	rng := rand.New(rand.NewSource(23))
	uniform, clustered := make([]Entry, n), make([]Entry, n)
	for i := range uniform {
		uniform[i].Score = rng.Float64() * 1e9
		clustered[i].Score = 1 + rng.Float64()*1e-9
	}
	clustered[n/2].Score = 1e9
	s := new(Sweep)
	sortTime := func(shape []Entry) time.Duration {
		ents := slices.Clone(shape)
		start, _ := threadCPU()
		sorted := s.sortByScore(ents)
		end, _ := threadCPU()
		if !slices.IsSortedFunc(sorted, func(a, b Entry) int { return cmp.Compare(a.Score, b.Score) }) {
			t.Fatal("not sorted")
		}
		return end - start
	}
	u, c := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for rep := 0; rep < 5; rep++ {
		u, c = min(u, sortTime(uniform)), min(c, sortTime(clustered))
	}
	t.Logf("uniform %v, clustered %v", u, c)
	if c > 3*u {
		t.Fatalf("clustered scores sort in %v, uniform ones in %v", c, u)
	}
}

// bandEntries counts the entries of cands between the (k+1)-th smallest
// per-candidate minimum and the k-th smallest maximum, ends included.
func bandEntries(cands []ScoredCandidate, k int) int {
	var mins, maxs []float64
	for _, c := range cands {
		mins, maxs = append(mins, slices.Min(c.Scores)), append(maxs, slices.Max(c.Scores))
	}
	slices.Sort(mins)
	slices.Sort(maxs)
	n := 0
	for _, c := range cands {
		for _, v := range c.Scores {
			if mins[k] <= v && v <= maxs[k-1] {
				n++
			}
		}
	}
	return n
}

// The DP runs over the rivals in play, not over the C-set: on the served kNN
// shape its cell updates stay under a quarter of |C|·k per evaluated entry.
// A count, so it repeats exactly where a timer would not.
func TestDPWorkGuard(t *testing.T) {
	benchSets()
	var cells, full int
	for _, cands := range scoredSets(benchK2) {
		if len(cands) <= benchKNN {
			continue // KNN answers without the kernel
		}
		s := scored(cands)
		s.topk(benchKNN)
		cells += s.cells
		full += bandEntries(cands, benchKNN) * len(cands) * benchKNN
	}
	t.Logf("%d DP cell updates, |C|·k per evaluated entry gives %d (%.3f)", cells, full, float64(cells)/float64(full))
	if cells == 0 || 4*cells > full {
		t.Fatalf("%d DP cell updates against %d for the full C-set", cells, full)
	}
}

// An all-tied group — every entry of every candidate at one score, as when
// every distance to a far query point rounds to one value — costs O(|C|) DP
// cells per candidate: each rival is surely tied and goes into the tie
// offset, not a DP row. Its answer is the uniform tie split, k/|C| each.
func TestDPWorkAllTied(t *testing.T) {
	const n, k = 2000, 8
	cands := make([]ScoredCandidate, n)
	for i := range cands {
		cands[i] = ScoredCandidate{ID: uncertain.ID(i), Scores: slices.Repeat([]float64{5}, 20)}
	}
	s := scored(cands)
	res := s.topk(k)
	t.Logf("%d DP cell updates for %d candidates", s.cells, n)
	if s.cells > n*n {
		t.Fatalf("%d DP cell updates, over |C| = %d per candidate", s.cells, n)
	}
	if len(res) != n {
		t.Fatalf("%d candidates answered, want %d", len(res), n)
	}
	for _, r := range res {
		if math.Abs(r.Prob-float64(k)/n) > 1e-12 {
			t.Fatalf("candidate %d: %v, want %v", r.ID, r.Prob, float64(k)/n)
		}
	}
}
