package prob

import (
	"fmt"
	"math"
)

// The support sup(X) of an itemset X over an uncertain database with
// per-transaction containment probabilities p_1..p_N is Poisson-Binomial
// distributed: the sum of N independent, non-identical Bernoulli trials.
// These helpers compute its moments and (truncated) distribution.

// PBMeanVar returns the mean and variance of the Poisson-Binomial
// distribution with the given trial probabilities: μ = Σp, σ² = Σp(1−p).
// One pass — the paper's point that the variance costs no more than the
// expectation.
func PBMeanVar(ps []float64) (mean, variance float64) {
	for _, p := range ps {
		mean += p
		variance += p * (1 - p)
	}
	return mean, variance
}

// PBDist returns the full distribution of the Poisson-Binomial:
// dist[k] = Pr{K = k}, k = 0..len(ps). O(N²) sequential convolution.
func PBDist(ps []float64) []float64 {
	dist := make([]float64, 1, len(ps)+1)
	dist[0] = 1
	for _, p := range ps {
		dist = append(dist, 0)
		for k := len(dist) - 1; k >= 1; k-- {
			dist[k] = dist[k]*(1-p) + dist[k-1]*p
		}
		dist[0] *= 1 - p
	}
	return dist
}

// PBDistTruncated returns the distribution truncated at cap: indexes
// 0..cap−1 hold exact point masses Pr{K = k}, and index cap holds the lumped
// tail Pr{K ≥ cap}. The lumping is exact (absorbing state), so tail queries
// at or below cap lose nothing. O(N·cap) time, O(cap) space — the form used
// by the exact probabilistic miners, which only ever need Pr{K ≥ msc}.
func PBDistTruncated(ps []float64, cap int) []float64 {
	if cap <= 0 {
		// The bucket alone: Pr{K ≥ 0} = 1.
		return []float64{1}
	}
	n := cap + 1
	if n > len(ps)+1 {
		n = len(ps) + 1
		cap = n - 1
	}
	dist := make([]float64, n)
	dist[0] = 1
	top := 0 // highest index with possible mass
	for _, p := range ps {
		if top < cap {
			top++
		}
		for k := top; k >= 1; k-- {
			if k == cap {
				// Absorbing bucket: mass already ≥ cap stays, mass at cap−1
				// that succeeds joins it.
				dist[k] += dist[k-1] * p
			} else {
				dist[k] = dist[k]*(1-p) + dist[k-1]*p
			}
		}
		dist[0] *= 1 - p
	}
	return dist
}

// PBTailGE returns Pr{K ≥ k} exactly, via the truncated distribution.
func PBTailGE(ps []float64, k int) float64 {
	if k <= 0 {
		return 1
	}
	if k > len(ps) {
		return 0
	}
	dist := PBDistTruncated(ps, k)
	t := dist[len(dist)-1]
	if t > 1 {
		t = 1
	}
	if t < 0 {
		t = 0
	}
	return t
}

// PBFreqProbDP computes Pr{K ≥ minCount} by the paper's §3.2.1 dynamic
// program over Pr_{≥i,j} — the probability that the itemset appears at
// least i times among the first j transactions:
//
//	Pr_{≥i,j} = Pr_{≥i−1,j−1}·p_j + Pr_{≥i,j−1}·(1−p_j)
//	Pr_{≥0,j} = 1;  Pr_{≥i,j} = 0 for i > j.
//
// (The paper's printed recurrence repeats Pr_{≥i,j} on the right-hand side —
// a typographical slip; the first term must come from row i−1.)
//
// Implemented with a rolling row of length minCount+1; O(N·minCount) time,
// exactly the complexity the paper reports as O(N²·min_sup). It returns the
// same value as PBTailGE. This is the reference recurrence: the DP miners
// run kernel.FreqTailDP, which the kernel package's tests pin bit for bit
// to this function, and tests and benchmarks compare against it.
func PBFreqProbDP(ps []float64, minCount int) float64 {
	if minCount <= 0 {
		return 1
	}
	if minCount > len(ps) {
		return 0
	}
	// row[i] = Pr{≥ i among transactions seen so far}; row[0] ≡ 1.
	row := make([]float64, minCount+1)
	row[0] = 1
	for _, p := range ps {
		if p == 0 {
			continue
		}
		for i := minCount; i >= 1; i-- {
			row[i] = row[i-1]*p + row[i]*(1-p)
		}
	}
	v := row[minCount]
	if v > 1 {
		v = 1
	}
	if v < 0 {
		v = 0
	}
	return v
}

// PBNormalApproxError bounds the quality of the CLT approximation with the
// Berry–Esseen style ratio: Σ E|X_i − p_i|³ / σ³. Small values mean the
// Normal tail is trustworthy; the paper's "database is large enough"
// condition corresponds to this ratio being small. Returns +Inf when the
// variance is zero.
func PBNormalApproxError(ps []float64) float64 {
	var variance, rho float64
	for _, p := range ps {
		q := 1 - p
		variance += p * q
		rho += p * q * (q*q + p*p)
	}
	if variance <= 0 {
		return math.Inf(1)
	}
	return rho / math.Pow(variance, 1.5)
}

// PBQuantile returns the smallest support count s such that
// Pr{sup ≤ s} ≥ q, for q in (0, 1]; with the exact Poisson-Binomial
// distribution of the given trial probabilities. Used for support
// confidence intervals over mined itemsets.
func PBQuantile(ps []float64, q float64) int {
	if q <= 0 || q > 1 {
		panic(fmt.Sprintf("prob: PBQuantile q=%v outside (0,1]", q))
	}
	dist := PBDist(ps)
	cum := 0.0
	for s, p := range dist {
		cum += p
		if cum >= q-1e-12 {
			return s
		}
	}
	return len(ps)
}

// PBInterval returns the central (1−α) support interval [lo, hi]:
// lo = quantile(α/2), hi = quantile(1−α/2).
func PBInterval(ps []float64, alpha float64) (lo, hi int) {
	if alpha <= 0 || alpha >= 1 {
		panic(fmt.Sprintf("prob: PBInterval alpha=%v outside (0,1)", alpha))
	}
	return PBQuantile(ps, alpha/2), PBQuantile(ps, 1-alpha/2)
}
