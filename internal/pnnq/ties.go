package pnnq

import "pvoronoi/internal/uncertain"

// running is one candidate's state during the sweep: its realized-score
// distribution as seen from the current score — the mass strictly below it,
// the mass exactly at it, and how many of its entries lie strictly above.
// It honors non-uniform instance weights and exposes the exact tie mass at
// the current score, which the tie-splitting win computations need.
type running struct {
	id      uncertain.ID
	lo, n   int32   // its entries are Sweep.ents[lo:lo+n] until topk compacts them
	left    int32   // entries strictly above the current score; n while it has none at or below it
	inGroup bool    // has an entry at the current score
	min     float64 // smallest score
	max     float64 // largest score
	total   float64 // mass of all entries
	less    float64 // mass strictly below the current score
	tie     float64 // mass exactly at the current score
	prob    float64 // accumulated result
}

// split returns the probability mass strictly below, exactly at, and strictly
// above the current score. Past the candidate's last entry the mass above is
// 0 by count, not by subtraction, so whether a rival is surely closer never
// depends on rounding.
func (r *running) split() (less, tie, far float64) {
	if r.left == 0 {
		return r.less, r.tie, 0
	}
	return r.less, r.tie, max(r.total-r.less-r.tie, 0) // never negative by float accumulation
}

// topkMass returns the probability that candidate self, realizing the current
// score, ranks among the k smallest across the active rivals — k being the
// slots the done rivals have left — breaking exact ties uniformly at random:
// with c rivals strictly closer and t tied, the tie group's internal order is
// a uniform permutation, so membership holds with probability
// min(t+1, k-c)/(t+1). Outcomes with c >= k are dead and dropped from the DP
// (a closer rival can never un-happen). With continuous scores every tie mass
// is zero and the DP is the classic Poisson-binomial over closer counts; with
// k = 1 it is the win probability, a t-way tie sharing the win 1/(t+1). The
// caller multiplies in the idle and the done rivals' masses.
//
// A rival with all its mass at the current score is surely tied: it adds
// one to a tie offset and its mass to a product instead of a DP row, so a
// group of |C| such rivals — every rival, where all distances round to one
// value — costs O(|C|), not O(|C|²·k).
func (s *Sweep) topkMass(self int32, k int) float64 {
	// dp[t*k+c] = P(exactly t tied rivals and c strictly closer rivals so
	// far), c < k, among the rivals not surely tied. Rows are added lazily
	// on the first rival with tie mass.
	dp := s.dp[:k]
	clear(dp)
	dp[0] = 1
	rows := 1
	top := 0 // no state so far has more than top rivals strictly closer
	offset, sure := 0, 1.0
	for _, a := range s.active {
		if a == self {
			continue
		}
		less, tie, far := s.run[a].split()
		if less == 0 && far == 0 {
			offset++
			sure *= tie
			continue
		}
		if tie > 0 {
			dp = dp[:len(dp)+k]
			clear(dp[rows*k:])
			rows++
		}
		if less > 0 && top < k-1 {
			top++
		}
		s.cells += rows * (top + 1)
		for t := rows - 1; t >= 0; t-- {
			row := dp[t*k : t*k+top+1]
			for c := top; c >= 0; c-- {
				v := row[c] * far
				if c > 0 {
					v += row[c-1] * less
				}
				if t > 0 {
					v += dp[(t-1)*k+c] * tie
				}
				row[c] = v
			}
		}
	}
	var total float64
	for i, v := range dp {
		if v == 0 {
			continue
		}
		t, c := i/k, i%k
		slots := float64(k - c)
		if group := float64(t + offset + 1); slots >= group {
			total += v
		} else {
			total += v * slots / group
		}
	}
	return total * sure
}
