package pvoronoi

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"testing"

	"pvoronoi/internal/dataset"
	"pvoronoi/internal/extquery"
	"pvoronoi/internal/race"
)

func TestGroupNNPublicAPI(t *testing.T) {
	db := buildSmallDB(t, 60, true)
	ix, err := Build(db, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	group := []Point{{200, 200}, {400, 300}, {300, 500}}
	for _, agg := range []Agg{AggSum, AggMax} {
		cands, err := ix.GroupNNCandidates(group, agg)
		if err != nil {
			t.Fatal(err)
		}
		if len(cands) == 0 {
			t.Fatalf("agg=%d: no candidates", agg)
		}
		results, cost, err := ix.GroupNNWithCost(group, agg)
		if err != nil {
			t.Fatal(err)
		}
		if cost.Candidates != len(cands) || cost.LeafIO <= 0 {
			t.Fatalf("agg=%d: cost %+v inconsistent with %d candidates", agg, cost, len(cands))
		}
		var sum float64
		inCands := map[ID]bool{}
		for _, id := range cands {
			inCands[id] = true
		}
		for _, r := range results {
			sum += r.Prob
			if !inCands[r.ID] {
				t.Fatalf("result %d not among candidates", r.ID)
			}
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Fatalf("agg=%d: probabilities sum to %g", agg, sum)
		}
	}
}

func TestPossibleKNNPublicAPI(t *testing.T) {
	db := buildSmallDB(t, 60, true)
	ix, err := Build(db, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	q := Point{500, 500}
	for _, k := range []int{1, 3, 5} {
		res, cost, err := ix.PossibleKNNWithCost(q, k)
		if err != nil {
			t.Fatal(err)
		}
		if cost.LeafIO <= 0 || cost.Candidates <= 0 {
			t.Fatalf("k=%d: missing retrieval cost: %+v", k, cost)
		}
		var sum float64
		for _, r := range res {
			sum += r.Prob
		}
		// Top-k membership probabilities sum to k.
		if math.Abs(sum-float64(k)) > 1e-6 {
			t.Fatalf("k=%d: membership probabilities sum to %g", k, sum)
		}
	}
	// k=1 must match the plain PNNQ winner set.
	k1, _ := ix.PossibleKNN(q, 1)
	full, _ := ix.Query(q)
	if len(k1) != len(full) {
		t.Fatalf("k=1 (%d results) disagrees with Query (%d)", len(k1), len(full))
	}
	for i := range k1 {
		if k1[i].ID != full[i].ID || math.Abs(k1[i].Prob-full[i].Prob) > 1e-9 {
			t.Fatalf("k=1 result %d: (%d, %g) vs Query (%d, %g)",
				i, k1[i].ID, k1[i].Prob, full[i].ID, full[i].Prob)
		}
	}
}

func TestPossibleRNNPublicAPI(t *testing.T) {
	db := buildSmallDB(t, 60, true)
	ix, err := Build(db, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	// q inside some object's region: that object must be an RNN candidate.
	target := db.Objects()[0]
	q := target.Region.Center()
	got, cost, err := ix.PossibleRNNWithCost(q)
	if err != nil {
		t.Fatal(err)
	}
	if cost.Candidates != len(got) {
		t.Fatalf("cost %+v disagrees with %d candidates", cost, len(got))
	}
	found := false
	for _, id := range got {
		if id == target.ID {
			found = true
		}
	}
	if !found {
		t.Fatalf("object %d containing q missing from RNN candidates %v", target.ID, got)
	}
}

// PossibleKNN(q, 1) must agree with Query(q) on the ID set (and the
// probabilities) across many random query points — the k-NN path goes
// through the region R*-tree, the PNNQ path through the octree of UBRs, and
// both must land on the same answer.
func TestPossibleKNN1MatchesQueryIDs(t *testing.T) {
	db := buildSmallDB(t, 80, true)
	ix, err := Build(db, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 60; iter++ {
		q := Point{rng.Float64() * 1000, rng.Float64() * 1000}
		knn, err := ix.PossibleKNN(q, 1)
		if err != nil {
			t.Fatal(err)
		}
		full, err := ix.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		knnIDs := map[ID]float64{}
		for _, r := range knn {
			knnIDs[r.ID] = r.Prob
		}
		if len(knnIDs) != len(full) {
			t.Fatalf("iter %d: PossibleKNN(1) returned %d IDs, Query %d", iter, len(knnIDs), len(full))
		}
		for _, r := range full {
			p, ok := knnIDs[r.ID]
			if !ok {
				t.Fatalf("iter %d: Query winner %d missing from PossibleKNN(1)", iter, r.ID)
			}
			if math.Abs(p-r.Prob) > 1e-9 {
				t.Fatalf("iter %d: object %d prob %g vs Query %g", iter, r.ID, p, r.Prob)
			}
		}
	}
}

// The public candidate sets ride the region R*-tree; they must equal the
// retained brute-force scans at every point — in d = 2, 3 and 4, on uniform
// and clustered data with coincident regions, for queries inside and outside
// the domain and for groups near and far apart — and keep equalling them as
// the index absorbs mixed batches and same-ID replacements and comes back
// from a checkpoint. Refinement is always on, hence the one "refined" level;
// the candidate sets never read a UBR.
func TestExtensionCandidatesMatchOraclesThroughUpdates(t *testing.T) {
	t.Run("refined", func(t *testing.T) {
		for _, dim := range []int{2, 3, 4} {
			for _, layout := range []string{"uniform", "clustered"} {
				t.Run(fmt.Sprintf("d%d/%s", dim, layout), func(t *testing.T) {
					extensionCandidatesMatchOracles(t, dim, layout == "clustered", testOptions())
				})
			}
		}
	})
}

// extensionObject draws one object in [0, 1000]^d: uniform, or around one of
// centres; its sides are 5–35 and it carries 20 pdf instances.
func extensionObject(rng *rand.Rand, id ID, dim int, centres []Point) *Object {
	lo, hi := make(Point, dim), make(Point, dim)
	c := centres[rng.Intn(len(centres))]
	for j := range lo {
		if c == nil {
			lo[j] = rng.Float64() * 950
		} else {
			lo[j] = min(max(c[j]+rng.NormFloat64()*40, 0), 950)
		}
		hi[j] = lo[j] + 5 + rng.Float64()*30
	}
	region := NewRect(lo, hi)
	return &Object{ID: id, Region: region, Instances: SampleUniform(region, 20, rng.Int63())}
}

// extensionDB builds the differential's database: n objects, uniform or in
// four Gaussian clusters, plus a twin with a coincident region for every
// tenth of them.
func extensionDB(t *testing.T, rng *rand.Rand, dim, n int, clustered bool) (*DB, []Point) {
	t.Helper()
	centres := []Point{nil}
	if clustered {
		centres = make([]Point, 4)
		for i := range centres {
			centres[i] = make(Point, dim)
			for j := range centres[i] {
				centres[i][j] = 100 + rng.Float64()*800
			}
		}
	}
	lo, hi := make(Point, dim), make(Point, dim)
	for j := range hi {
		hi[j] = 1000
	}
	db := NewDB(NewRect(lo, hi))
	for i := 0; i < n; i++ {
		o := extensionObject(rng, ID(i), dim, centres)
		if err := db.Add(o); err != nil {
			t.Fatal(err)
		}
		if i%10 == 0 {
			twin := &Object{ID: ID(10000 + i), Region: o.Region, Instances: SampleUniform(o.Region, 20, rng.Int63())}
			if err := db.Add(twin); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db, centres
}

func extensionCandidatesMatchOracles(t *testing.T, dim int, clustered bool, opts Options) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(123 + dim)))
	db, centres := extensionDB(t, rng, dim, 60, clustered)
	ix, err := Build(db, opts)
	if err != nil {
		t.Fatal(err)
	}
	point := func(lo, hi float64) Point {
		p := make(Point, dim)
		for j := range p {
			p[j] = lo + rng.Float64()*(hi-lo)
		}
		return p
	}
	fill := func(v float64) Point {
		p := make(Point, dim)
		for j := range p {
			p[j] = v
		}
		return p
	}
	same := func(stage, what string, got, want []ID) {
		t.Helper()
		if !slices.Equal(got, want) {
			t.Fatalf("%s %s: %v != oracle %v", stage, what, got, want)
		}
	}
	check := func(stage string) {
		t.Helper()
		// Queries inside the domain, just outside it, far outside it, and
		// so far out that every distance overflows and every object ties.
		queries := []Point{fill(-1e5), fill(1e300)}
		for i := 0; i < 6; i++ {
			queries = append(queries, point(0, 1000), point(-600, 1600))
		}
		for _, q := range queries {
			for _, k := range []int{1, 4, 8} {
				got, err := ix.PossibleKNNCandidates(q, k)
				if err != nil {
					t.Fatal(err)
				}
				same(stage, fmt.Sprintf("knn k=%d at %v", k, q), got, extquery.KNNCandidates(ix.DB(), q, k))
			}
			got, err := ix.PossibleRNN(q)
			if err != nil {
				t.Fatal(err)
			}
			same(stage, fmt.Sprintf("rnn at %v", q), got, extquery.RNNCandidates(ix.DB(), q, opts.MMax))
		}
		// Single points, parties of four within 100 of each other, and
		// groups spread over — and beyond — the whole domain.
		var groups [][]Point
		for i := 0; i < 4; i++ {
			c := point(0, 1000)
			party := make([]Point, 4)
			for j := range party {
				party[j] = make(Point, dim)
				for m := range c {
					party[j][m] = c[m] + (rng.Float64()-0.5)*100
				}
			}
			groups = append(groups, []Point{point(-600, 1600)}, party,
				[]Point{point(0, 1000), point(0, 1000), point(-600, 1600), point(-600, 1600)})
		}
		groups = append(groups, []Point{fill(0), fill(1000), fill(-5000), fill(1e6)})
		for _, g := range groups {
			for _, agg := range []Agg{AggSum, AggMax} {
				got, err := ix.GroupNNCandidates(g, agg)
				if err != nil {
					t.Fatal(err)
				}
				same(stage, fmt.Sprintf("groupnn agg=%d at %v", agg, g), got, extquery.GroupNNBruteForce(ix.DB(), g, agg))
			}
		}
	}
	check("initial")

	// Churn: mixed batches of deletes, inserts and same-ID replacements (a
	// delete and an insert of the same ID in one batch).
	next := ID(20000)
	churn := func(round int) {
		t.Helper()
		objs := ix.DB().Objects()
		var ups []Update
		for i := 0; i < 6; i++ {
			victim := objs[rng.Intn(len(objs))].ID
			if slices.ContainsFunc(ups, func(u Update) bool { return u.ID == victim || u.Object != nil && u.Object.ID == victim }) {
				continue
			}
			ups = append(ups, DeleteOp(victim))
			switch i % 3 {
			case 0:
				ups = append(ups, InsertOp(extensionObject(rng, victim, dim, centres)))
			case 1:
				ups = append(ups, InsertOp(extensionObject(rng, next, dim, centres)))
				next++
			}
		}
		if _, err := ix.ApplyBatch(ups); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		check(fmt.Sprintf("after batch %d", round))
	}
	churn(1)
	churn(2)

	// A checkpoint: save, load over a copy of the database, and keep going
	// on the loaded index.
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if ix, err = LoadIndex(&buf, ix.DB().Clone()); err != nil {
		t.Fatal(err)
	}
	check("after load")
	churn(3)
}

// PossibleRNN must honor the configured MMax granularity rather than a
// hardcoded depth: at MMax=0 the domination recursion never bisects, so the
// candidate set can only grow (conservative false negatives of prunability).
func TestPossibleRNNHonorsMMax(t *testing.T) {
	db := buildSmallDB(t, 60, false)
	coarseOpts := testOptions()
	coarseOpts.MMax = 1
	coarse, err := Build(db.Clone(), coarseOpts)
	if err != nil {
		t.Fatal(err)
	}
	fine, err := Build(db.Clone(), testOptions()) // default MMax = 10
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	sameIDs := func(got []ID, want []ID) bool {
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	diverged := false
	for iter := 0; iter < 40; iter++ {
		q := Point{rng.Float64() * 1000, rng.Float64() * 1000}
		c, err := coarse.PossibleRNN(q)
		if err != nil {
			t.Fatal(err)
		}
		f, err := fine.PossibleRNN(q)
		if err != nil {
			t.Fatal(err)
		}
		// Each index must match the scan oracle at its own configured depth,
		// element for element.
		wantC := extquery.RNNCandidates(db, q, 1)
		wantF := extquery.RNNCandidates(db, q, 10)
		if !sameIDs(c, wantC) {
			t.Fatalf("coarse at %v: %v, oracle %v", q, c, wantC)
		}
		if !sameIDs(f, wantF) {
			t.Fatalf("fine at %v: %v, oracle %v", q, f, wantF)
		}
		if !sameIDs(wantC, wantF) {
			diverged = true
		}
	}
	// The probes must actually distinguish the depths somewhere — otherwise a
	// hardcoded depth would slip through the oracle comparison above.
	if !diverged {
		t.Fatal("depth 1 and depth 10 oracles agreed on every probe; test layout cannot detect MMax plumbing")
	}
}

// harnessGroups draws query groups the way the benchmark harness does: size
// points uniform in a box of side span around a uniform centre, clamped into
// the domain.
func harnessGroups(domain Rect, n, size int, span float64, seed int64) [][]Point {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]Point, n)
	for i := range out {
		centre := make(Point, domain.Dim())
		for j := range centre {
			centre[j] = domain.Lo[j] + rng.Float64()*(domain.Hi[j]-domain.Lo[j])
		}
		g := make([]Point, size)
		for k := range g {
			p := make(Point, len(centre))
			for j := range p {
				v := centre[j] + (rng.Float64()-0.5)*span
				p[j] = min(max(v, domain.Lo[j]), domain.Hi[j])
			}
			g[k] = p
		}
		out[i] = g
	}
	return out
}

// TestExtensionCandidateHash pins the served possible-kNN (k = 8) and
// group-NN (4 points within 500, sum) candidate lists over the benchmark
// harness's seed-3 samples — its uni2 and uni3 datasets, 1 000 points and
// 1 000 groups each — to hashes recorded while retrieval still walked the
// adjacency graph. Candidate sets are defined by the scan oracles, so no
// change of retrieval route may move them. The mean list lengths are the
// harness's extquery.knn_candidates and extquery.gnn_candidates.
func TestExtensionCandidateHash(t *testing.T) {
	if race.Enabled {
		t.Skip("two harness-sized builds; the hash is checked uninstrumented")
	}
	for _, c := range []struct {
		name      string
		n, dim    int
		maxSide   float64
		instances int
		want      uint64
		knn, gnn  int // candidates summed over the 1 000 samples
	}{
		{"uni2", 8000, 2, 60, 100, 0x6485e4023993d4db, 11590, 5230},
		{"uni3", 3000, 3, 400, 200, 0x7d2764a0acb1c499, 18053, 4577},
	} {
		t.Run(c.name, func(t *testing.T) {
			const seed = 3 // the harness derives each input's seed as seed*1000 + purpose
			db := dataset.Synthetic(dataset.SyntheticParams{N: c.n, Dim: c.dim, MaxSide: c.maxSide, Instances: c.instances, Seed: seed*1000 + 1})
			ix, err := BuildParallel(db, DefaultOptions(), 0)
			if err != nil {
				t.Fatal(err)
			}
			points := dataset.QueryPoints(db.Domain, 1000, seed*1000+2)
			groups := harnessGroups(db.Domain, len(points), 4, 500, seed*1000+3)
			h := fnv.New64a()
			var buf []byte
			var knnLen, gnnLen int
			for i, q := range points {
				knn, err := ix.PossibleKNNCandidates(q, 8)
				if err != nil {
					t.Fatal(err)
				}
				gnn, err := ix.GroupNNCandidates(groups[i], AggSum)
				if err != nil {
					t.Fatal(err)
				}
				knnLen, gnnLen = knnLen+len(knn), gnnLen+len(gnn)
				buf = buf[:0]
				for _, ids := range [][]ID{knn, gnn} {
					buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ids)))
					for _, id := range ids {
						buf = binary.LittleEndian.AppendUint32(buf, uint32(id))
					}
				}
				h.Write(buf)
			}
			if got := h.Sum64(); got != c.want || knnLen != c.knn || gnnLen != c.gnn {
				t.Fatalf("%s: hash %#x over %d kNN and %d group-NN candidates; want %#x over %d and %d", c.name, got, knnLen, gnnLen, c.want, c.knn, c.gnn)
			}
		})
	}
}

// TestServedAnswerHash pins the served answers — IDs and the exact bits of
// every probability — of Query, PossibleKNN (k = 8) and GroupNN (4 points
// within 500, sum) over the same seed-3 harness samples as
// TestExtensionCandidateHash, to hashes recorded while Step 2 still read its
// pdfs through a decoded-record cache. Where Step 2 gets its instances from
// is a speed decision only: no change to it may move one bit of an answer.
func TestServedAnswerHash(t *testing.T) {
	if race.Enabled {
		t.Skip("two harness-sized builds; the hash is checked uninstrumented")
	}
	for _, c := range []struct {
		name      string
		n, dim    int
		maxSide   float64
		instances int
		want      uint64
		answers   int // results summed over the 1 000 samples and three kinds
	}{
		{"uni2", 8000, 2, 60, 100, 0xfc99a9a873efd951, 15830},
		{"uni3", 3000, 3, 400, 200, 0x5582bf677a636d45, 23656},
	} {
		t.Run(c.name, func(t *testing.T) {
			const seed = 3
			db := dataset.Synthetic(dataset.SyntheticParams{N: c.n, Dim: c.dim, MaxSide: c.maxSide, Instances: c.instances, Seed: seed*1000 + 1})
			ix, err := BuildParallel(db, DefaultOptions(), 0)
			if err != nil {
				t.Fatal(err)
			}
			points := dataset.QueryPoints(db.Domain, 1000, seed*1000+2)
			groups := harnessGroups(db.Domain, len(points), 4, 500, seed*1000+3)
			h := fnv.New64a()
			var buf []byte
			answers := 0
			for i, q := range points {
				nn, err := ix.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				knn, err := ix.PossibleKNN(q, 8)
				if err != nil {
					t.Fatal(err)
				}
				gnn, err := ix.GroupNN(groups[i], AggSum)
				if err != nil {
					t.Fatal(err)
				}
				buf = buf[:0]
				for _, rs := range [][]Result{nn, knn, gnn} {
					answers += len(rs)
					buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rs)))
					for _, r := range rs {
						buf = binary.LittleEndian.AppendUint32(buf, uint32(r.ID))
						buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.Prob))
					}
				}
				h.Write(buf)
			}
			if got := h.Sum64(); got != c.want || answers != c.answers {
				t.Fatalf("%s: hash %#x over %d answers; want %#x over %d", c.name, got, answers, c.want, c.answers)
			}
		})
	}
}
