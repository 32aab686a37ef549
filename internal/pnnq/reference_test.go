package pnnq

// The pre-sweep Step 2, kept verbatim as the oracle for the differential and
// fuzz tests: one sorted distribution per candidate (refDistrib), and for
// every instance a binary search into every rival's distribution. It is the
// specification of the tie rule and of what "unchanged" means for the sweep
// kernel — same IDs, same order, probabilities within 1e-12.

import (
	"sort"

	"pvoronoi/internal/geom"
)

func refCompute(cands []CandidateData, q geom.Point) []Result {
	if len(cands) == 0 {
		return nil
	}
	// Per-candidate weighted distance distributions, plus the raw distances
	// for the outer instance loop.
	dists := make([]refDistrib, len(cands))
	raw := make([][]float64, len(cands))
	for i, c := range cands {
		ds := make([]float64, len(c.Instances))
		ws := make([]float64, len(c.Instances))
		for j, in := range c.Instances {
			ds[j] = geom.Dist(in.Pos, q)
			ws[j] = in.Prob
		}
		raw[i] = ds
		dists[i] = newRefDistrib(ds, ws)
	}
	var out []Result
	for i, c := range cands {
		var total float64
		for j, in := range c.Instances {
			if in.Prob == 0 {
				continue
			}
			total += in.Prob * refWinMass(dists, i, raw[i][j])
		}
		if total > 0 {
			out = append(out, Result{ID: c.ID, Prob: total})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Prob != out[j].Prob {
			return out[i].Prob > out[j].Prob
		}
		return out[i].ID < out[j].ID
	})
	return out
}

func refComputeScores(cands []ScoredCandidate) []Result {
	if len(cands) == 0 {
		return nil
	}
	dists := make([]refDistrib, len(cands))
	for i, c := range cands {
		dists[i] = newRefDistrib(c.Scores, c.Weights)
	}
	var out []Result
	for i, c := range cands {
		var total float64
		for j, score := range c.Scores {
			w := 1.0 / float64(len(c.Scores))
			if c.Weights != nil {
				w = c.Weights[j]
			}
			if w == 0 {
				continue
			}
			total += w * refWinMass(dists, i, score)
		}
		if total > 0 {
			out = append(out, Result{ID: c.ID, Prob: total})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Prob != out[j].Prob {
			return out[i].Prob > out[j].Prob
		}
		return out[i].ID < out[j].ID
	})
	return out
}

func refComputeKNN(cands []ScoredCandidate, k int) []KNNResult {
	n := len(cands)
	if n == 0 || k <= 0 {
		return nil
	}
	if k >= n {
		// Everyone is trivially within the k nearest.
		out := make([]KNNResult, n)
		for i, c := range cands {
			out[i] = KNNResult{ID: c.ID, Prob: 1}
		}
		return out
	}
	dists := make([]refDistrib, n)
	for i, c := range cands {
		dists[i] = newRefDistrib(c.Scores, c.Weights)
	}
	out := make([]KNNResult, 0, n)
	for i, c := range cands {
		var total float64
		for j, score := range c.Scores {
			w := 1.0 / float64(len(c.Scores))
			if c.Weights != nil {
				w = c.Weights[j]
			}
			if w == 0 {
				continue
			}
			total += w * refTopkMass(dists, i, score, k)
		}
		if total > 0 {
			out = append(out, KNNResult{ID: c.ID, Prob: total})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Prob != out[j].Prob {
			return out[i].Prob > out[j].Prob
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// refDistrib is one candidate's realized-score distribution: ascending unique
// score values, each value's probability mass, and the cumulative mass
// strictly below it. Unlike the plain sorted-slice representation, it honors
// non-uniform instance weights and exposes the exact tie mass at a value,
// which the tie-splitting win computations need.
type refDistrib struct {
	scores []float64
	mass   []float64
	below  []float64
	total  float64
}

// newRefDistrib builds the distribution of the given scores. A nil weight slice
// means equally weighted scores (1/n each).
func newRefDistrib(scores, weights []float64) refDistrib {
	n := len(scores)
	if n == 0 {
		return refDistrib{}
	}
	pairs := make([][2]float64, n)
	u := 1.0 / float64(n)
	for i, s := range scores {
		w := u
		if weights != nil {
			w = weights[i]
		}
		pairs[i] = [2]float64{s, w}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i][0] < pairs[j][0] })
	d := refDistrib{scores: make([]float64, 0, n), mass: make([]float64, 0, n)}
	for _, p := range pairs {
		if m := len(d.scores); m > 0 && d.scores[m-1] == p[0] {
			d.mass[m-1] += p[1]
		} else {
			d.scores = append(d.scores, p[0])
			d.mass = append(d.mass, p[1])
		}
	}
	d.below = make([]float64, len(d.scores))
	for i, m := range d.mass {
		d.below[i] = d.total
		d.total += m
	}
	return d
}

// split returns the probability mass strictly below, exactly at, and strictly
// above r. An empty distribution (a region-only rival without instances) is
// unconstrained and counts as farther with probability 1, matching the
// convention Compute has always used.
func (d *refDistrib) split(r float64) (less, tie, far float64) {
	if len(d.scores) == 0 {
		return 0, 0, 1
	}
	i := sort.SearchFloat64s(d.scores, r)
	switch {
	case i < len(d.scores) && d.scores[i] == r:
		less, tie = d.below[i], d.mass[i]
	case i == len(d.scores):
		less = d.total
	default:
		less = d.below[i]
	}
	far = d.total - less - tie
	if far < 0 {
		far = 0 // guard against float accumulation
	}
	return less, tie, far
}

// refWinMass returns the probability that a realized score s beats every rival
// distribution, splitting exact ties evenly: conditioned on no rival being
// strictly closer, a t-way tie group shares the win uniformly, so each
// outcome with t tying rivals contributes 1/(t+1). With no ties this is the
// plain product of strictly-farther masses (the pre-fix behavior, which lost
// the tied mass entirely).
func refWinMass(dists []refDistrib, self int, s float64) float64 {
	prod := 1.0
	var dp []float64 // dp[t] = P(t rivals tied so far, none closer); nil until a tie appears
	for k := range dists {
		if k == self {
			continue
		}
		_, tie, far := dists[k].split(s)
		if tie == 0 {
			if far == 0 {
				return 0 // this rival is surely closer
			}
			if dp == nil {
				prod *= far
			} else {
				for t := range dp {
					dp[t] *= far
				}
			}
			continue
		}
		if dp == nil {
			dp = append(dp, prod)
		}
		dp = append(dp, 0)
		for t := len(dp) - 1; t >= 1; t-- {
			dp[t] = dp[t]*far + dp[t-1]*tie
		}
		dp[0] *= far
	}
	if dp == nil {
		return prod
	}
	var total float64
	for t, v := range dp {
		total += v / float64(t+1)
	}
	return total
}

// refTopkMass returns the probability that a realized score s ranks among the k
// smallest across all rivals, breaking exact ties uniformly at random: with c
// rivals strictly closer and t tied, the tie group's internal order is a
// uniform permutation, so membership holds with probability
// min(t+1, k-c)/(t+1). Outcomes with c >= k are dead and dropped from the DP
// (a closer rival can never un-happen). With continuous scores every tie
// mass is zero and the DP degenerates to the classic Poisson-binomial over
// closer counts.
func refTopkMass(dists []refDistrib, self int, s float64, k int) float64 {
	// dp[t][c] = P(exactly t tied rivals and c strictly closer rivals so
	// far), c < k. Rows are added lazily on the first rival with tie mass.
	dp := [][]float64{make([]float64, k)}
	dp[0][0] = 1
	for r := range dists {
		if r == self {
			continue
		}
		less, tie, far := dists[r].split(s)
		if tie > 0 {
			dp = append(dp, make([]float64, k))
		}
		alive := false
		for t := len(dp) - 1; t >= 0; t-- {
			row := dp[t]
			for c := k - 1; c >= 0; c-- {
				v := row[c] * far
				if c > 0 {
					v += row[c-1] * less
				}
				if t > 0 {
					v += dp[t-1][c] * tie
				}
				row[c] = v
				if v != 0 {
					alive = true
				}
			}
		}
		if !alive {
			return 0 // all mass fell past the k-th rank
		}
	}
	var total float64
	for t, row := range dp {
		for c, v := range row {
			if v == 0 {
				continue
			}
			slots := float64(k - c)
			if group := float64(t + 1); slots >= group {
				total += v
			} else {
				total += v * slots / group
			}
		}
	}
	return total
}
