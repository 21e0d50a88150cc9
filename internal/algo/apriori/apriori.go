// Package apriori implements the shared breadth-first generate-and-test
// framework used by five of the paper's eight algorithms: UApriori, the
// exact probabilistic miners (DP and DC, with and without Chernoff pruning)
// and the Apriori-family approximate miners (PDUApriori, NDUApriori).
//
// The paper's §4.1 insists on "a common implementation framework which
// provides common data structures and subroutines" so that comparisons
// measure algorithms, not implementation accidents. This package is that
// layer: candidate generation with Apriori subset pruning, a prefix-trie
// counting pass that accumulates expected support and variance (and,
// optionally, the per-transaction containment probability vector needed by
// exact miners) in one database scan per level, and the level-wise driver.
// Each concrete miner differs only in its Decide function — the per-itemset
// frequentness test whose cost the paper analyses in Tables 4 and 5.
package apriori

import (
	"context"
	"math"
	"sort"

	"umine/internal/core"
	"umine/internal/parallel"
)

// Candidate is one itemset being evaluated at the current level, with the
// aggregates accumulated by the counting pass.
type Candidate struct {
	Items core.Itemset
	// ESup is Σ_t Pr(X ⊆ t), Definition 1.
	ESup float64
	// Var is Σ_t p_t(1 − p_t), the Poisson-Binomial support variance.
	Var float64
	// Probs holds the nonzero containment probabilities p_t, populated only
	// when Config.CollectProbs is set (exact miners need the full vector).
	Probs []float64
}

// Config parameterizes one run of the framework.
type Config struct {
	// Decide is the per-itemset frequentness test: given a counted
	// candidate it returns the result to report and whether the candidate
	// is frequent (and may therefore seed the next level). Required.
	Decide func(c *Candidate) (core.Result, bool)
	// CollectProbs requests the per-transaction probability vectors.
	CollectProbs bool
	// Restrict, when non-nil, confines the run to a pre-computed candidate
	// superset: level-1 items and generated candidates for which Restrict
	// returns false are dropped *before* the counting pass, so the run pays
	// (counts, decides, seeds) only for allowed itemsets. Everything allowed
	// is counted and decided exactly as an unrestricted run counts and
	// decides it — per-candidate aggregates are independent of which other
	// candidates share the trie, and the chunk layout depends only on the
	// database size — so when the allowed set is a superset of the
	// unrestricted run's accepted itemsets, the restricted run returns a
	// bit-identical result. This is the counting-pass reuse hook behind the
	// SON partition engine's phase-2 verification (umine/internal/
	// partition). Restrict may receive transient itemsets it must not
	// retain. It is called from the generation loop — concurrently from
	// worker goroutines when Workers allows parallel generation — so it
	// must be safe for concurrent use (the platform's restrictions are
	// read-only set lookups, which are).
	Restrict func(core.Itemset) bool
	// ESupPrune, when positive, drops generated candidates whose expected
	// support upper bound — the minimum ESup over their k−1 subsets — is
	// below the given absolute threshold. This is the decremental-style
	// pruning of UApriori [Chui et al. 2007/2008]: valid whenever the
	// Decide test can never accept an itemset with esup below the
	// threshold. Zero disables it.
	ESupPrune float64
	// Workers bounds the goroutines used by the counting pass and (with
	// ParallelDecide) the per-candidate frequentness tests: 0 or 1 =
	// serial, negative = GOMAXPROCS (see umine/internal/parallel). The
	// counting pass shards the transaction list into fixed chunks whose
	// layout depends only on the database size and merges per-chunk
	// aggregates in chunk order, so results are bit-identical for every
	// worker count; probability vectors stay in global transaction order.
	// This is an extension beyond the paper's single-threaded platform —
	// benchmarks comparing algorithm families keep it off.
	Workers int
	// ParallelDecide marks Decide as safe for concurrent calls, letting the
	// framework evaluate candidates' frequentness on the worker pool when
	// Workers allows. A Decide that mutates shared state (e.g. stats
	// counters) must synchronize internally (atomics). Outcomes are
	// collected into per-candidate slots and appended in candidate order,
	// so results and the next level's seeds are identical to a serial run.
	ParallelDecide bool
	// Name labels ProgressEvents with the concrete miner's registry name
	// (the framework is shared by five algorithms).
	Name string
	// Progress, when non-nil, receives one PhaseLevel event per completed
	// level (candidates counted and decided) and a final PhaseDone event.
	// Observation never changes results. See core.ProgressFunc.
	Progress core.ProgressFunc
}

// Run executes the level-wise mining loop and returns results in canonical
// order together with the work counters.
//
// Cancellation: the context is checked between counting chunks and between
// candidate verifications (the two places a level spends its time), so a
// cancellation aborts the run within one chunk/candidate of work; Run then
// returns ctx.Err() with whatever counters had accumulated. A run that
// completes is bit-identical to one under a never-canceled context.
func Run(ctx context.Context, db *core.Database, cfg Config) ([]core.Result, core.MiningStats, error) {
	var stats core.MiningStats
	var exec core.ExecStats
	var results []core.Result

	// Level 1: every item is a candidate (every allowed item, under a
	// restriction).
	cands := make([]Candidate, 0, db.NumItems)
	for i := 0; i < db.NumItems; i++ {
		items := core.Itemset{core.Item(i)}
		if cfg.Restrict != nil && !cfg.Restrict(items) {
			continue
		}
		cands = append(cands, Candidate{Items: items})
	}
	stats.CandidatesGenerated += len(cands)
	if err := count(ctx, db, cands, 1, cfg, &stats, &exec); err != nil {
		return nil, stats, err
	}

	frequent, err := decide(ctx, cands, cfg, &results)
	if err != nil {
		return nil, stats, err
	}
	esups := rememberESups(nil, cands)
	level := 1
	cfg.Progress.Emit(cfg.Name, core.PhaseLevel, level, stats)

	for len(frequent) >= 2 {
		next := generate(frequent, esups, cfg, &stats)
		if len(next) == 0 {
			break
		}
		k := len(next[0].Items)
		if err := count(ctx, db, next, k, cfg, &stats, &exec); err != nil {
			return nil, stats, err
		}
		frequent, err = decide(ctx, next, cfg, &results)
		if err != nil {
			return nil, stats, err
		}
		esups = rememberESups(esups, next)
		level = k
		cfg.Progress.Emit(cfg.Name, core.PhaseLevel, level, stats)
	}

	core.SortResults(results)
	cfg.Progress.EmitExec(cfg.Name, exec)
	cfg.Progress.Emit(cfg.Name, core.PhaseDone, level, stats)
	return results, stats, nil
}

// decide applies cfg.Decide to every counted candidate, appending accepted
// results and returning the frequent itemsets that seed the next level.
// With ParallelDecide the tests run on the worker pool — each candidate's
// verification is independent, which is where the exact miners spend almost
// all of their time — but outcomes land in per-candidate slots and are
// appended in candidate order, so the output matches the serial path.
// Cancellation lands between candidates on both paths.
func decide(ctx context.Context, cands []Candidate, cfg Config, results *[]core.Result) ([]core.Itemset, error) {
	var frequent []core.Itemset
	if !cfg.ParallelDecide || parallel.Resolve(cfg.Workers) == 1 {
		// Serial path appends in place — no per-candidate outcome slots, so
		// the paper-faithful single-threaded runs keep their old footprint.
		// The per-candidate context check is a non-blocking channel poll —
		// noise next to even the cheapest Decide, and what bounds the
		// cancellation latency of the exact miners' seconds-long tests to a
		// single candidate.
		done := ctx.Done()
		for i := range cands {
			if done != nil {
				select {
				case <-done:
					return nil, ctx.Err()
				default:
				}
			}
			res, keep := cfg.Decide(&cands[i])
			if keep {
				*results = append(*results, res)
				frequent = append(frequent, cands[i].Items)
			}
		}
		return frequent, nil
	}
	type outcome struct {
		res  core.Result
		keep bool
	}
	outs, err := parallel.MapCtx(ctx, cfg.Workers, cands, func(i int, _ Candidate) outcome {
		res, keep := cfg.Decide(&cands[i])
		return outcome{res, keep}
	})
	if err != nil {
		return nil, err
	}
	for i, o := range outs {
		if o.keep {
			*results = append(*results, o.res)
			frequent = append(frequent, cands[i].Items)
		}
	}
	return frequent, nil
}

// rememberESups records candidate expected supports for subset-bound
// pruning at the next level.
func rememberESups(m map[string]float64, cands []Candidate) map[string]float64 {
	if m == nil {
		m = make(map[string]float64, len(cands))
	}
	for i := range cands {
		m[cands[i].Items.Key()] = cands[i].ESup
	}
	return m
}

// genShardSize fixes the shard layout of the parallel candidate join: the
// sorted frequent list splits into ⌈n/genShards⌉-sized blocks of join
// anchors (never below genMinShard, bounding per-shard overhead). Like every
// decomposition in the platform the layout is a pure function of n — never
// of Workers — so shard boundaries, and hence the shard-ordered merge, are
// identical at every worker count.
const (
	genShards   = 64
	genMinShard = 128
)

func genShardSize(n int) int {
	size := (n + genShards - 1) / genShards
	if size < genMinShard {
		size = genMinShard
	}
	return size
}

// generate joins frequent k-itemsets into k+1 candidates (classic
// F_k ⋈ F_k prefix join) and applies Apriori subset pruning: every k-subset
// of a candidate must be frequent. Joins outside a non-nil restriction are
// dropped as if never generated (they are outside the run's search space).
// With ESupPrune > 0, candidates whose subset-minimum expected support
// falls below the threshold are dropped too (esup is anti-monotone, so min
// over subsets upper-bounds the candidate).
//
// The join parallelizes over fixed shards of anchor indices: each shard
// joins its anchors i against the whole sorted tail (reads cross shard
// boundaries; writes never do), produces its own candidate slice and
// counter deltas, and shards merge in shard (= anchor) order — so the
// candidate order, the counters, and therefore everything downstream are
// bit-identical to the serial join at every worker count. freqSet, esups
// and cfg.Restrict are only ever read during the join.
func generate(frequent []core.Itemset, esups map[string]float64, cfg Config, stats *core.MiningStats) []Candidate {
	sort.Slice(frequent, func(i, j int) bool { return frequent[i].Compare(frequent[j]) < 0 })
	freqSet := make(map[string]bool, len(frequent))
	for _, f := range frequent {
		freqSet[f.Key()] = true
	}
	k := len(frequent[0])

	// joinRange joins anchors [lo, hi) into dst, returning the updated
	// slice and the generated/pruned counts — the shared body of the serial
	// and sharded paths.
	joinRange := func(lo, hi int, dst []Candidate) (out []Candidate, generated, pruned int) {
		out = dst
		buf := make(core.Itemset, k+1)
		for i := lo; i < hi; i++ {
			a := frequent[i]
			for j := i + 1; j < len(frequent); j++ {
				b := frequent[j]
				if !samePrefix(a, b, k-1) {
					break // sorted order: no later b shares the prefix either
				}
				copy(buf, a)
				buf[k] = b[k-1]
				if cfg.Restrict != nil && !cfg.Restrict(buf) {
					continue
				}
				generated++
				if !allSubsetsFrequent(buf, freqSet) {
					pruned++
					continue
				}
				if cfg.ESupPrune > 0 {
					if ub := minSubsetESup(buf, esups); ub < cfg.ESupPrune-core.Eps {
						pruned++
						continue
					}
				}
				out = append(out, Candidate{Items: buf.Clone()})
			}
		}
		return out, generated, pruned
	}

	n := len(frequent)
	size := genShardSize(n)
	nc := parallel.NumChunks(n, size)
	if nc <= 1 || parallel.Resolve(cfg.Workers) == 1 {
		out, generated, pruned := joinRange(0, n, nil)
		stats.CandidatesGenerated += generated
		stats.CandidatesPruned += pruned
		return out
	}
	type genShard struct {
		out               []Candidate
		generated, pruned int
	}
	shards := make([]genShard, nc)
	parallel.DoChunks(cfg.Workers, n, size, func(c, lo, hi int) {
		s := &shards[c]
		s.out, s.generated, s.pruned = joinRange(lo, hi, nil)
	})
	var out []Candidate
	for c := range shards {
		out = append(out, shards[c].out...)
		stats.CandidatesGenerated += shards[c].generated
		stats.CandidatesPruned += shards[c].pruned
		shards[c] = genShard{}
	}
	return out
}

func samePrefix(a, b core.Itemset, n int) bool {
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// allSubsetsFrequent checks every k-subset of the k+1 candidate. The two
// subsets obtained by dropping one of the last two items are the join
// parents and need no check.
func allSubsetsFrequent(cand core.Itemset, freqSet map[string]bool) bool {
	k := len(cand) - 1
	sub := make(core.Itemset, k)
	for drop := 0; drop < k-1; drop++ {
		idx := 0
		for i, it := range cand {
			if i == drop {
				continue
			}
			sub[idx] = it
			idx++
		}
		if !freqSet[sub.Key()] {
			return false
		}
	}
	return true
}

// minSubsetESup returns the minimum recorded expected support over the
// candidate's immediate subsets (+Inf when none is recorded).
func minSubsetESup(cand core.Itemset, esups map[string]float64) float64 {
	minE := math.Inf(1)
	k := len(cand) - 1
	sub := make(core.Itemset, k)
	for drop := 0; drop <= k; drop++ {
		idx := 0
		for i, it := range cand {
			if i == drop {
				continue
			}
			sub[idx] = it
			idx++
		}
		if e, ok := esups[sub.Key()]; ok && e < minE {
			minE = e
		}
	}
	return minE
}
