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
	cand          int32 // index into Sweep.run; set when the entry survives the cutoff
}

// Sweep is the Step-2 kernel behind every entry point: the caller Adds each
// candidate and fills its entries, then NN or KNN evaluates all of them in
// one pass over the merged ascending score order, keeping per candidate the
// running mass strictly below (less) and exactly at (tie) the current score.
//
// Only entries at or below the cutoff are sorted and evaluated. For rank k
// (1 for NN) the cutoff is the k-th smallest per-candidate maximum score: the
// k candidates that define it lie entirely at or below it, so an entry
// strictly above it is not theirs and has k rivals surely strictly closer —
// mass exactly 0. Every evaluation then happens at or below the cutoff, so
// entries above it are nobody's less or tie either; they count only through
// total and left. An entry equal to the cutoff stays: a tie at a rival's
// maximum still shares the rank.
//
// A Sweep comes from a pool and returns to it inside NN/KNN; results are
// freshly allocated and never alias it. Do not use a Sweep after NN or KNN.
type Sweep struct {
	ents []Entry
	run  []running
	maxs []float64
	tied []int32   // candidates with an entry at the current score
	dp   []float64 // topkMass's DP rows
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
// bounds no cutoff and is never consumed.
func (s *Sweep) measure() {
	for i := range s.run {
		r := &s.run[i]
		r.total, r.min, r.max, r.left = 1, math.Inf(1), math.Inf(1), 1
		if r.n > 0 {
			r.total, r.max, r.left = 0, math.Inf(-1), r.n
			for _, e := range s.entries(i) {
				r.total += e.Weight
				r.min, r.max = min(r.min, e.Score), max(r.max, e.Score)
			}
		}
	}
}

// topk drops the entries above the k-th smallest per-candidate maximum, sorts
// the rest by score and sweeps them.
func (s *Sweep) topk(k int) []Result {
	s.dp = slices.Grow(s.dp[:0], len(s.run)*k)
	s.measure()
	s.maxs = s.maxs[:0]
	for i := range s.run {
		s.maxs = append(s.maxs, s.run[i].max)
	}
	cutoff := math.Inf(1)
	if k <= len(s.maxs) {
		slices.Sort(s.maxs)
		cutoff = s.maxs[k-1]
	}
	kept := 0
	for i := range s.run {
		for _, e := range s.entries(i) {
			if e.Score > cutoff {
				continue
			}
			e.cand = int32(i)
			s.ents[kept] = e
			kept++
		}
	}
	s.ents = s.ents[:kept]
	slices.SortFunc(s.ents, func(a, b Entry) int {
		switch {
		case a.Score < b.Score:
			return -1
		case a.Score > b.Score:
			return 1
		}
		return 0
	})

	// Walk the sorted entries one group of equal scores at a time and add, to
	// every candidate present in the group, its tied mass times the
	// probability that this score ranks within the top k.
	ents, run := s.ents, s.run
	for i := 0; i < len(ents); {
		score := ents[i].Score
		tied := s.tied[:0]
		for {
			r := &run[ents[i].cand]
			if !r.inGroup {
				r.inGroup = true
				tied = append(tied, ents[i].cand)
			}
			r.tie += ents[i].Weight
			r.left--
			if i++; i == len(ents) || ents[i].Score != score {
				break
			}
		}
		for _, c := range tied {
			if r := &run[c]; r.tie != 0 {
				r.prob += r.tie * topkMass(run, int(c), k, s.dp)
			}
		}
		for _, c := range tied {
			r := &run[c]
			r.less += r.tie
			r.tie, r.inGroup = 0, false
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

// rank orders results by decreasing probability, ties by increasing ID.
func rank(out []Result) {
	slices.SortFunc(out, func(a, b Result) int {
		return cmp.Or(cmp.Compare(b.Prob, a.Prob), cmp.Compare(a.ID, b.ID))
	})
}
