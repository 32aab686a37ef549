package pnnq

import (
	"cmp"
	"math"
	"slices"
	"sync"

	"pvoronoi/internal/uncertain"
)

// Entry is one realized score of a candidate (a distance, or an aggregate of
// distances) and the probability mass it carries.
type Entry struct {
	Score, Weight float64
	cand          int32 // index into Sweep.run; set when the entry lands in the contested band
	bucket        int32 // scratch of sortByScore
}

// Sweep is the Step-2 kernel behind every entry point: the caller Adds each
// candidate and fills its entries, then NN or KNN evaluates them in one pass
// over the merged ascending score order, keeping per candidate the running
// mass strictly below (less) and exactly at (tie) the current score.
//
// Only the contested band is sorted and evaluated (docs/ARCHITECTURE.md,
// "Step 2: the sweep", has both proofs). For rank k (1 for NN) the cutoff is
// the k-th smallest per-candidate maximum score: an entry strictly above it
// has k rivals surely strictly closer and weighs exactly 0; it counts only
// through total and left. The floor is the (k+1)-th smallest per-candidate
// minimum: at most k candidates, its owner among them, have an entry at or
// below a score strictly under it, so at most k-1 rivals are closer or tied
// and the entry ranks within the top k whatever they realize. Entries equal
// to the cutoff or the floor stay: they may tie with the rival defining it.
//
// A Sweep comes from a pool and returns to it inside NN/KNN; results are
// freshly allocated and never alias it. Do not use a Sweep after NN or KNN.
type Sweep struct {
	ents, tmp  []Entry // tmp is sortByScore's output buffer
	run        []running
	mins, maxs []float64 // per-candidate extremes, sorted for the floor and the cutoff
	counts     []int32   // sortByScore's bucket boundaries
	tied       []int32   // candidates with an entry at the current score
	active     []int32   // candidates with an entry at or below the current score and one above
	dp         []float64 // topkMass's DP rows
	cells      int       // DP cell updates of the last topk: a deterministic measure of its work
}

var sweepPool = sync.Pool{New: func() any { return new(Sweep) }}

// NewSweep returns an empty kernel.
func NewSweep() *Sweep { return sweepPool.Get().(*Sweep) }

func (s *Sweep) release() {
	s.ents, s.run = s.ents[:0], s.run[:0]
	sweepPool.Put(s)
}

// Add appends a candidate with n realized scores and returns its entries for
// the caller to fill — Score and Weight of every one (they hold stale data),
// before the next Add. A candidate with n = 0 is a region-only rival: it is
// unconstrained (farther than everything with probability 1) and never wins.
func (s *Sweep) Add(id uncertain.ID, n int) []Entry {
	lo := len(s.ents)
	s.ents = slices.Grow(s.ents, n)[:lo+n]
	s.run = append(s.run, running{id: id, lo: int32(lo), n: int32(n)})
	return s.ents[lo : lo+n : lo+n]
}

// NN returns each candidate's probability of realizing the minimum score —
// of ranking first — in decreasing probability order, omitting zeros.
func (s *Sweep) NN() []Result {
	defer s.release()
	return s.topk(1)
}

// KNN returns each candidate's probability of ranking among the k smallest
// scores, in decreasing probability order, omitting zeros.
func (s *Sweep) KNN(k int) []KNNResult {
	defer s.release()
	n := len(s.run)
	if n == 0 || k <= 0 {
		return nil
	}
	if k >= n {
		// Everyone is trivially within the k nearest.
		out := make([]KNNResult, n)
		for i := range s.run {
			out[i] = KNNResult{ID: s.run[i].id, Prob: 1}
		}
		return out
	}
	return s.topk(k)
}

// entries returns candidate i's entries as Add handed them out; valid until
// topk compacts them.
func (s *Sweep) entries(i int) []Entry {
	r := &s.run[i]
	return s.ents[r.lo : r.lo+r.n]
}

// measure computes each candidate's total mass and extreme scores. A
// region-only rival is one phantom instance at +∞: it constrains nobody,
// bounds neither floor nor cutoff and is never consumed.
func (s *Sweep) measure() {
	s.mins, s.maxs = s.mins[:0], s.maxs[:0]
	for i := range s.run {
		r := &s.run[i]
		r.total, r.min, r.max, r.left = 1, math.Inf(1), math.Inf(1), r.n
		if r.n > 0 {
			r.total, r.max = 0, math.Inf(-1)
			for _, e := range s.entries(i) {
				r.total += e.Weight
				r.min, r.max = min(r.min, e.Score), max(r.max, e.Score)
			}
		}
		s.mins, s.maxs = append(s.mins, r.min), append(s.maxs, r.max)
	}
}

// kth sorts keys and returns the k-th smallest, +∞ when there are fewer.
func kth(keys []float64, k int) float64 {
	if k > len(keys) {
		return math.Inf(1)
	}
	slices.Sort(keys)
	return keys[k-1]
}

// topk settles the entries below the floor and above the cutoff at once,
// sorts the band in between by score and sweeps it.
func (s *Sweep) topk(k int) []Result {
	s.dp, s.cells = slices.Grow(s.dp[:0], len(s.run)*k), 0
	s.measure()
	run := s.run
	floor, cutoff := kth(s.mins, k+1), kth(s.maxs, k)

	kept := 0
	for i := range run {
		r := &run[i]
		for _, e := range s.entries(i) {
			switch {
			case e.Score > cutoff: // weighs 0
			case e.Score < floor: // weighs all it can; rivals see it as closer from the start
				r.less += e.Weight
				r.left--
			default:
				e.cand = int32(i)
				s.ents[kept] = e
				kept++
			}
		}
	}
	ents := s.sortByScore(s.ents[:kept])

	// A rival has either no entry at or below the current score (idle: farther
	// with its whole mass, total), or none above it (done: surely strictly
	// closer, it takes one of the k slots with its mass, less), or it is active
	// and goes through topkMass. An entry below the floor outranks or ties
	// within the k slots whatever the rivals realize, so it weighs the product
	// of their totals — what the DP over all of them sums to, zero totals and
	// totals off 1 included.
	done, doneMass := 0, 1.0
	s.active = s.active[:0]
	for i := range run {
		r := &run[i]
		if r.left == r.n {
			continue
		}
		if r.less != 0 {
			r.prob = r.less * s.totals(i, false)
		}
		if r.left == 0 {
			done++
			doneMass *= r.less
		} else {
			s.active = append(s.active, int32(i))
		}
	}
	idle := s.totals(-1, true)

	// Walk the band one group of equal scores at a time and add, to every
	// candidate in the group, its tied mass times the probability that this
	// score ranks within the top k. With k rivals done nothing later can (the
	// cutoff already says so, unless a NaN blinded it).
	for i := 0; i < len(ents) && done < k; {
		score := ents[i].Score
		tied, began := s.tied[:0], len(s.active)
		for {
			r := &run[ents[i].cand]
			if !r.inGroup {
				r.inGroup = true
				tied = append(tied, ents[i].cand)
			}
			if r.left == r.n {
				s.active = append(s.active, ents[i].cand)
			}
			r.tie += ents[i].Weight
			r.left--
			if i++; i == len(ents) || ents[i].Score != score {
				break
			}
		}
		if len(s.active) > began {
			idle = s.totals(-1, true)
		}
		for _, c := range tied {
			if r := &run[c]; r.tie != 0 {
				r.prob += r.tie * idle * doneMass * s.topkMass(c, k-done)
			}
		}
		for _, c := range tied {
			r := &run[c]
			r.less += r.tie
			r.tie, r.inGroup = 0, false
			if r.left == 0 {
				done++
				doneMass *= r.less
				s.active = slices.DeleteFunc(s.active, func(a int32) bool { return a == c })
			}
		}
		s.tied = tied
	}

	out := make([]Result, 0, len(run))
	for i := range run {
		if r := &run[i]; r.prob > 0 {
			out = append(out, Result{ID: r.id, Prob: r.prob})
		}
	}
	if len(out) == 0 {
		return nil
	}
	rank(out)
	return out
}

// totals returns the product of the total masses of the candidates other
// than self — of the idle ones only, those with no entry at or below the
// current score, if idleOnly. It is recomputed when a rival starts rather
// than divided down, so a zero total is no special case.
func (s *Sweep) totals(self int, idleOnly bool) float64 {
	mass := 1.0
	for i := range s.run {
		if r := &s.run[i]; i != self && (!idleOnly || r.left == r.n) {
			mass *= r.total
		}
	}
	return mass
}

// Buckets up to maxInsertion entries are finished by insertion; a pass is
// not worth its set-up below minDistribute entries; sortLevels passes at most.
const (
	maxInsertion  = 12
	minDistribute = 32
	sortLevels    = 2
)

// sortByScore returns ents in ascending score order, in place or in s.tmp.
func (s *Sweep) sortByScore(ents []Entry) []Entry {
	n := len(ents) // <= MaxInt32: run indexes ents with int32 already
	s.tmp = slices.Grow(s.tmp[:0], n)[:n]
	s.counts = slices.Grow(s.counts[:0], sortLevels*(n+1))[:sortLevels*(n+1)]
	if distribute(ents, s.tmp, s.counts, sortLevels) {
		return s.tmp
	}
	return ents
}

// distribute sorts src by ascending score and reports whether the result is
// in dst rather than in src. One counting pass spreads the n entries over n
// equal-width buckets between the smallest and the largest score; the index
// ⌊(score-lo)·n/(hi-lo)⌋ is monotone in the score, so the buckets come out
// in order and equal scores share one. Each bucket is then finished on its
// own, a large one by levels-1 further passes and then the comparison sort:
// clustered scores stay O(n log n). Few entries, or a scale that is not a
// positive finite number (a NaN or ±∞ score, all scores equal, hi-lo over-
// or underflowing), take the comparison sort at once; a finite positive
// scale means finite lo and hi and products within [0, n], safe to convert.
// counts has room for levels·(n+1) values.
func distribute(src, dst []Entry, counts []int32, levels int) bool {
	n := len(src)
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := range src {
		lo, hi = min(lo, src[i].Score), max(hi, src[i].Score)
	}
	scale := float64(n) / (hi - lo)
	if levels == 0 || n < minDistribute || !(scale > 0) || math.IsInf(scale, 1) {
		compareSort(src)
		return false
	}
	// counts[b+1] counts bucket b; then counts[b] is where b starts in dst,
	// and after the scatter where it ends.
	counts, rest := counts[:n+1], counts[n+1:]
	clear(counts)
	for i := range src {
		b := min(int32((src[i].Score-lo)*scale), int32(n-1))
		src[i].bucket = b
		counts[b+1]++
	}
	for b := 1; b < n; b++ {
		counts[b] += counts[b-1]
	}
	for _, e := range src {
		dst[counts[e.bucket]] = e
		counts[e.bucket]++
	}
	start := int32(0)
	for _, end := range counts[:n] {
		bucket := dst[start:end]
		if len(bucket) > maxInsertion {
			// src[start:end] is free by now: the bucket's second buffer.
			if distribute(bucket, src[start:end], rest, levels-1) {
				copy(bucket, src[start:end])
			}
		} else {
			for i := 1; i < len(bucket); i++ {
				for j := i; j > 0 && bucket[j].Score < bucket[j-1].Score; j-- {
					bucket[j], bucket[j-1] = bucket[j-1], bucket[j]
				}
			}
		}
		start = end
	}
	return true
}

func compareSort(ents []Entry) {
	slices.SortFunc(ents, func(a, b Entry) int { return cmp.Compare(a.Score, b.Score) })
}

// rank orders results by decreasing probability, ties by increasing ID.
func rank(out []Result) {
	slices.SortFunc(out, func(a, b Result) int {
		return cmp.Or(cmp.Compare(b.Prob, a.Prob), cmp.Compare(a.ID, b.ID))
	})
}
