package kernel

// The exact probabilistic miners' verification kernel: the §3.2.1 dynamic
// program for Pr{K ≥ minCount} over a candidate's per-transaction
// containment probabilities. Profiles of the DP miner family are >95% this
// one rolling-row loop, so it gets an optimized implementation (FreqTailDP)
// pinned bitwise by this package's unit and fuzz tests against the
// reference recurrence, prob.PBFreqProbDP. FreqTailDP is the only DP the
// miners run; the reference exists for tests and benchmarks.
//
// The contract: ps are probabilities in [0, 1]. The optimizations lean on
// that domain — the skipped regions below are exactly zero only because no
// input is NaN or infinite.
//
// Three observations let FreqTailDP skip work without moving a bit:
//
//   - Zero triangle (top): after s probability-bearing transactions, mass
//     can sit at index ≤ s only. The reference's updates above that index
//     compute 0·p + 0·(1−p) = 0 — skipping them changes nothing.
//
//   - Dead window (bottom): a value written at step j climbs at most one
//     index per later step, so with r steps remaining, entries below
//     minCount − r can no longer reach row[minCount]. They are left stale;
//     every entry the loop still reads (index ≥ minCount − r − 1) was live
//     at every earlier step, so it carries the reference's exact bits.
//
//   - Register carry: iterating downward, this step's row[i−1] load is the
//     next iteration's row[i] operand — carrying it in a register (and
//     unrolling 2×) halves the loads without touching the arithmetic:
//     each element still computes row[i−1]·p + row[i]·(1−p), same
//     multiplications, same additions, same order.
//
// Together the triangles cut the O(N·minCount) reference to
// O(minCount·(N−minCount)) — for candidates whose support barely clears the
// threshold (the ones count pruning lets through), that approaches O(N).

// FreqTailDP computes Pr{K ≥ minCount} for the Poisson-Binomial with trial
// probabilities ps. Bit-identical to prob.PBFreqProbDP on every input in the
// [0, 1] domain.
func FreqTailDP(ps []float64, minCount int) float64 {
	if minCount <= 0 {
		return 1
	}
	n := len(ps)
	if minCount > n {
		return 0
	}
	// row[i] = Pr{≥ i among transactions seen so far}; row[0] ≡ 1.
	row := make([]float64, minCount+1)
	row[0] = 1
	top := 0 // highest index that can hold mass
	for j, p := range ps {
		if p == 0 {
			continue
		}
		if top < minCount {
			top++
		}
		rem := n - j - 1 // steps after this one (p == 0 steps counted: conservative)
		if top+rem < minCount {
			// Even promoting mass every remaining step cannot reach
			// row[minCount]: the reference would return an untouched 0.
			return 0
		}
		lo := minCount - rem
		if lo < 1 {
			lo = 1
		}
		q := 1 - p
		hi := row[top]
		i := top
		for i-1 >= lo {
			a := row[i-1]
			b := row[i-2]
			row[i] = a*p + hi*q
			row[i-1] = b*p + a*q
			hi = b
			i -= 2
		}
		if i == lo {
			row[i] = row[i-1]*p + hi*q
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
