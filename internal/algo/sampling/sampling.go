// Package sampling implements the possible-world sampling miner of Calders,
// Garboni and Goethals ("Efficient pattern mining of uncertain data with
// sampling", PAKDD 2010) — the paper's reference [11] and the one
// representative approach of its related work that the eight benchmarked
// algorithms do not cover. It is provided as an extension to the paper's
// line-up: a third way to answer probabilistic-frequentness queries,
// between the exact miners (§3.2) and the moment-based approximations
// (§3.3).
//
// The estimator: the support of X is a Poisson-Binomial random variable
// with one Bernoulli trial per transaction, success probability
// p_t = Pr(X ⊆ T_t). Sampling a possible world instantiates every trial;
// the fraction of sampled worlds where sup(X) ≥ ⌈N·min_sup⌉ is an unbiased
// estimate of the frequent probability. By Hoeffding's inequality,
// w = ⌈ln(2/δ) / (2ε²)⌉ worlds bound the estimation error by ε with
// confidence 1−δ — independent of N, which is the method's selling point on
// very large databases.
//
// The miner shares the Apriori breadth-first framework with the paper's
// other Apriori-family algorithms (frequent probability is anti-monotone,
// so subset pruning remains sound) and adds two standard refinements:
//
//   - Chernoff pre-pruning (Lemma 1), which discards hopeless candidates
//     for the cost of the expected support the counting pass already paid;
//   - sequential early stopping: worlds are sampled in batches and the
//     Hoeffding confidence interval is checked after each batch, so
//     clear-cut candidates (the vast majority — §4.5 observes most frequent
//     probabilities sit at 1) settle after a few hundred worlds instead of
//     the worst-case budget.
package sampling

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"umine/internal/algo/apriori"
	"umine/internal/core"
	"umine/internal/prob"
)

// Defaults for the (ε, δ) estimation guarantee.
const (
	// DefaultEpsilon bounds the frequent-probability estimation error.
	DefaultEpsilon = 0.02
	// DefaultDelta is the probability of exceeding DefaultEpsilon.
	DefaultDelta = 0.05
	// batchSize is the number of worlds sampled between early-stop checks.
	batchSize = 128
)

// Miner is the possible-world sampling miner. The zero value uses the
// default (ε, δ) guarantee, Chernoff pre-pruning and a fixed seed; it is
// ready to use.
type Miner struct {
	// Epsilon is the error bound ε of the estimate (DefaultEpsilon if 0).
	Epsilon float64
	// Delta is the confidence parameter δ (DefaultDelta if 0).
	Delta float64
	// Worlds overrides the Hoeffding-derived sample budget when positive.
	Worlds int
	// DisableChernoff switches the Lemma 1 pre-pruning off (ablation).
	DisableChernoff bool
	// Seed makes runs reproducible; the zero seed is a valid fixed seed.
	Seed int64
	// Workers bounds the goroutines of the shared counting pass (0 or 1 =
	// serial; negative = GOMAXPROCS). The Monte-Carlo decide step itself
	// stays serial: its candidates share one sequential RNG stream, and
	// keeping that stream in candidate order is what makes runs
	// reproducible — so results are identical for every worker count.
	Workers int
	// Progress observes the run per level (may be nil).
	Progress core.ProgressFunc
}

// SetWorkers implements core.ParallelMiner.
func (m *Miner) SetWorkers(workers int) { m.Workers = workers }

// SetProgress implements core.ObservableMiner.
func (m *Miner) SetProgress(fn core.ProgressFunc) { m.Progress = fn }

// Name implements core.Miner.
func (m *Miner) Name() string { return "MCSampling" }

// Semantics implements core.Miner.
func (m *Miner) Semantics() core.Semantics { return core.Probabilistic }

// WorldBudget returns the number of sampled worlds per candidate implied by
// the configuration: Worlds when set, else ⌈ln(2/δ)/(2ε²)⌉.
func (m *Miner) WorldBudget() int {
	if m.Worlds > 0 {
		return m.Worlds
	}
	eps := m.Epsilon
	if eps <= 0 {
		eps = DefaultEpsilon
	}
	delta := m.Delta
	if delta <= 0 {
		delta = DefaultDelta
	}
	return int(math.Ceil(math.Log(2/delta) / (2 * eps * eps)))
}

// Mine implements core.Miner.
func (m *Miner) Mine(ctx context.Context, db *core.Database, th core.Thresholds) (*core.ResultSet, error) {
	if err := th.Validate(core.Probabilistic); err != nil {
		return nil, fmt.Errorf("%w: %v", core.ErrUnsupportedThresholds, err)
	}
	msc := th.MinSupCount(db.N())
	budget := m.WorldBudget()
	eps := m.Epsilon
	if eps <= 0 {
		eps = DefaultEpsilon
	}
	rng := rand.New(rand.NewSource(m.Seed))
	var stats core.MiningStats

	cfg := apriori.Config{
		CollectProbs: true,
		// Workers shards the counting pass only; ParallelDecide stays off
		// because Decide consumes the shared RNG stream in candidate order.
		Workers: m.Workers,
		Name:    m.Name(),
		Decide: func(c *apriori.Candidate) (core.Result, bool) {
			if !m.DisableChernoff && prob.ChernoffInfrequent(c.ESup, msc, th.PFT) {
				stats.ChernoffPruned++
				return core.Result{}, false
			}
			fp := estimateFreqProb(rng, c.Probs, msc, th.PFT, budget, eps)
			if fp > th.PFT+core.Eps {
				return core.Result{Itemset: c.Items, ESup: c.ESup, Var: c.Var, FreqProb: fp}, true
			}
			return core.Result{}, false
		},
	}
	if m.Progress != nil {
		// Fold the Decide closure's family-specific counter into the
		// framework's snapshots, so streamed events (and the CLIs' partial
		// stats on cancellation) report the Chernoff pruning work. Decide
		// and the level-boundary emissions share the mining goroutine
		// (ParallelDecide is off), so the read is unsynchronized but safe.
		fn := m.Progress
		cfg.Progress = func(ev core.ProgressEvent) {
			ev.Stats.ChernoffPruned += stats.ChernoffPruned
			fn(ev)
		}
	}
	results, runStats, err := apriori.Run(ctx, db, cfg)
	if err != nil {
		return nil, err
	}
	runStats.Add(stats)
	return &core.ResultSet{
		Algorithm:  m.Name(),
		Semantics:  core.Probabilistic,
		Thresholds: th,
		N:          db.N(),
		Results:    results,
		Stats:      runStats,
	}, nil
}

// estimateFreqProb Monte-Carlo-estimates Pr{sup ≥ msc} from the nonzero
// containment probabilities, stopping early once the running Hoeffding
// interval excludes pft.
func estimateFreqProb(rng *rand.Rand, ps []float64, msc int, pft float64, budget int, eps float64) float64 {
	if msc <= 0 {
		return 1
	}
	if msc > len(ps) {
		return 0
	}
	hits, worlds := 0, 0
	for worlds < budget {
		n := batchSize
		if rem := budget - worlds; rem < n {
			n = rem
		}
		for i := 0; i < n; i++ {
			if sampleSupportAtLeast(rng, ps, msc) {
				hits++
			}
		}
		worlds += n
		// Early stop when the 1−δ interval around the running estimate
		// already decides the ≥/< pft question with margin ε: the final
		// answer cannot change sides.
		est := float64(hits) / float64(worlds)
		radius := math.Sqrt(math.Log(2/0.01) / (2 * float64(worlds)))
		if est-radius > pft+eps || est+radius < pft-eps {
			return est
		}
	}
	return float64(hits) / float64(worlds)
}

// sampleSupportAtLeast draws one possible world restricted to the
// candidate's trials and reports whether its support reaches msc. Two
// standard short-circuits: success as soon as msc hits are seen, failure as
// soon as the remaining trials cannot reach it.
func sampleSupportAtLeast(rng *rand.Rand, ps []float64, msc int) bool {
	hits := 0
	for i, p := range ps {
		if rng.Float64() < p {
			hits++
			if hits >= msc {
				return true
			}
		}
		if hits+len(ps)-i-1 < msc {
			return false
		}
	}
	return false
}
