// Package exact implements the exact probabilistic frequent itemset miners
// of the paper's §3.2: the dynamic-programming algorithm DP [Bernecker et
// al. 2009] and the divide-and-conquer algorithm DC [Sun et al. 2010], each
// with and without the Chernoff bound-based pruning of Lemma 1 — the four
// configurations the experiments call DPNB, DPB, DCNB and DCB.
//
// All four share the Apriori breadth-first framework (anti-monotonicity of
// frequent probability justifies subset pruning) and differ only in the
// per-itemset frequentness test:
//
//   - DP evaluates the §3.2.1 recurrence in O(N·msc) per itemset (the
//     paper's O(N²·min_sup));
//   - DC builds the support distribution by recursive halving with
//     FFT-accelerated convolution, O(N log N) per itemset, truncating every
//     vector at msc with an exact absorbing tail bucket;
//   - the B variants first test the Chernoff upper bound (O(1) given the
//     expected support, which the shared counting pass already produced)
//     and skip the exact computation when the bound already rules the
//     candidate out.
//
// The bound only rejects itemsets whose exact frequent probability is at
// most pft, so the screen never changes a result set. Miner.Screen runs it
// in the NB configurations too: the serving layer sets it on every exact
// miner it builds, so a served DPNB/DCNB mine returns the paper's DPNB/DCNB
// results bit for bit, but with DPB/DCB's ChernoffPruned and
// ExactEvaluations counters and timings. The registry, the CLIs and the
// experiment harness never set it.
package exact

import (
	"context"
	"fmt"
	"sync/atomic"

	"umine/internal/algo/apriori"
	"umine/internal/core"
	"umine/internal/kernel"
	"umine/internal/prob"
)

// Method selects the exact frequent-probability computation.
type Method int

const (
	// DP is the dynamic-programming method (§3.2.1).
	DP Method = iota
	// DC is the divide-and-conquer method with FFT (§3.2.2).
	DC
)

func (m Method) String() string {
	switch m {
	case DP:
		return "DP"
	case DC:
		return "DC"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Miner is one of the four exact probabilistic miners.
type Miner struct {
	// Method selects DP or DC.
	Method Method
	// Chernoff enables the Lemma 1 pruning (the "B" variants).
	Chernoff bool
	// Screen runs the Lemma 1 pruning without changing the configuration:
	// an NB miner with Screen set returns its NB result set and Name, and
	// counts the prunes in ChernoffPruned exactly as the B variant does.
	// It is a no-op when Chernoff is set.
	Screen bool
	// Workers bounds the goroutines used by the counting pass and the
	// per-candidate frequent-probability verification (0 or 1 = serial, the
	// paper's platform; negative = GOMAXPROCS). Each candidate's DP
	// recurrence or DC convolution is independent, so verification — the
	// dominant cost of the exact family — shards embarrassingly; results
	// are identical for every worker count.
	Workers int
	// Progress observes the run per level (may be nil).
	Progress core.ProgressFunc
	// Restrict confines the run to a candidate superset, turning the
	// per-candidate DP/DC verification into a pass over just the allowed
	// itemsets (phase 2 of the SON partition engine); see
	// apriori.Config.Restrict. May be nil.
	Restrict func(core.Itemset) bool
}

// SetWorkers implements core.ParallelMiner.
func (m *Miner) SetWorkers(workers int) { m.Workers = workers }

// SetRestrict implements core.RestrictableMiner.
func (m *Miner) SetRestrict(allow func(core.Itemset) bool) { m.Restrict = allow }

// SetProgress implements core.ObservableMiner.
func (m *Miner) SetProgress(fn core.ProgressFunc) { m.Progress = fn }

// Name implements core.Miner, using the paper's experiment labels:
// DPNB, DPB, DCNB, DCB.
func (m *Miner) Name() string {
	suffix := "NB"
	if m.Chernoff {
		suffix = "B"
	}
	return m.Method.String() + suffix
}

// Semantics implements core.Miner.
func (m *Miner) Semantics() core.Semantics { return core.Probabilistic }

// Mine implements core.Miner. Cancellation lands between candidate
// verifications — the per-candidate DP/DC computation is the dominant cost
// of the whole platform, so that is exactly where aborting matters.
func (m *Miner) Mine(ctx context.Context, db *core.Database, th core.Thresholds) (*core.ResultSet, error) {
	if err := th.Validate(core.Probabilistic); err != nil {
		return nil, fmt.Errorf("%w: %v", core.ErrUnsupportedThresholds, err)
	}
	msc := th.MinSupCount(db.N())

	freqProb := m.freqProbFunc(msc)

	// Decide runs on the worker pool (ParallelDecide), so its two counters
	// are atomics, folded into the run stats afterwards.
	var chernoffPruned, exactEvals atomic.Int64
	cfg := apriori.Config{
		CollectProbs:   true,
		Workers:        m.Workers,
		ParallelDecide: true,
		Name:           m.Name(),
		Restrict:       m.Restrict,
		Decide: func(c *apriori.Candidate) (core.Result, bool) {
			if (m.Chernoff || m.Screen) && prob.ChernoffInfrequent(c.ESup, msc, th.PFT) {
				chernoffPruned.Add(1)
				return core.Result{}, false
			}
			exactEvals.Add(1)
			fp := freqProb(c.Probs)
			if fp > th.PFT+core.Eps {
				return core.Result{Itemset: c.Items, ESup: c.ESup, Var: c.Var, FreqProb: fp}, true
			}
			return core.Result{}, false
		},
	}
	if m.Progress != nil {
		// Fold the atomics into the framework's snapshot so level events
		// carry the family-specific counters too.
		fn := m.Progress
		cfg.Progress = func(ev core.ProgressEvent) {
			ev.Stats.ChernoffPruned += int(chernoffPruned.Load())
			ev.Stats.ExactEvaluations += int(exactEvals.Load())
			fn(ev)
		}
	}
	results, runStats, err := apriori.Run(ctx, db, cfg)
	if err != nil {
		return nil, err
	}
	runStats.ChernoffPruned += int(chernoffPruned.Load())
	runStats.ExactEvaluations += int(exactEvals.Load())
	return &core.ResultSet{
		Algorithm:  m.Name(),
		Semantics:  core.Probabilistic,
		Thresholds: th,
		N:          db.N(),
		Results:    results,
		Stats:      runStats,
	}, nil
}

// freqProbFunc returns the per-itemset exact tail computation for the
// configured method. The DP method runs kernel.FreqTailDP, the optimized
// §3.2.1 recurrence that the internal/kernel tests pin bit for bit to the
// reference prob.PBFreqProbDP.
func (m *Miner) freqProbFunc(msc int) func(ps []float64) float64 {
	switch m.Method {
	case DP:
		return func(ps []float64) float64 { return kernel.FreqTailDP(ps, msc) }
	case DC:
		return func(ps []float64) float64 { return freqProbDC(ps, msc) }
	default:
		panic(fmt.Sprintf("exact: unknown method %d", m.Method))
	}
}

// freqProbDC computes Pr{sup ≥ msc} by the §3.2.2 divide-and-conquer:
// split the probability vector, recursively build each half's support
// distribution (truncated at msc with an absorbing bucket), and convolve
// the halves (FFT-backed above the cutoff). Exact for the tail at msc.
func freqProbDC(ps []float64, msc int) float64 {
	if msc <= 0 {
		return 1
	}
	if msc > len(ps) {
		return 0
	}
	dist := supportDistDC(ps, msc)
	t := dist[len(dist)-1]
	if t > 1 {
		t = 1
	}
	if t < 0 {
		t = 0
	}
	return t
}

// dcLeafSize is the divide-and-conquer base case: below this many
// transactions the distribution is built by direct sequential convolution.
const dcLeafSize = 32

// supportDistDC returns the truncated support distribution (absorbing
// bucket at index cap) of the Poisson-Binomial with the given trial
// probabilities.
func supportDistDC(ps []float64, cap int) []float64 {
	if len(ps) <= dcLeafSize {
		return prob.PBDistTruncated(ps, cap)
	}
	mid := len(ps) / 2
	left := supportDistDC(ps[:mid], cap)
	right := supportDistDC(ps[mid:], cap)
	return prob.ConvolveTruncated(left, right, cap)
}
