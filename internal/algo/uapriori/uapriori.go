// Package uapriori implements UApriori [Chui, Kao, Hung 2007; Chui, Kao
// 2008], the breadth-first generate-and-test miner for expected
// support-based frequent itemsets (paper §3.1.1).
//
// UApriori extends the classical Apriori algorithm to uncertain data: the
// support count of a candidate becomes the sum over transactions of the
// containment probability product. The downward-closure property holds for
// expected support, so classical Apriori pruning applies unchanged; the
// decremental pruning of the original papers is realized as the
// subset-minimum expected-support bound in the shared framework.
package uapriori

import (
	"context"
	"fmt"

	"umine/internal/algo/apriori"
	"umine/internal/core"
)

// Miner is the UApriori algorithm. The zero value is ready to use.
type Miner struct {
	// DisableDecrementalPrune turns off the subset-esup bound, leaving only
	// classical Apriori pruning (for ablation benchmarks).
	DisableDecrementalPrune bool
	// Workers shards the counting pass over this many goroutines (0 or 1 =
	// serial, the paper's single-threaded platform; negative = GOMAXPROCS).
	// Results are identical for every worker count: the shared layer's
	// chunk layout depends only on the database size and merges in chunk
	// order.
	Workers int
	// Progress observes the run per level (may be nil).
	Progress core.ProgressFunc
	// Restrict confines the run to a candidate superset (phase 2 of the
	// SON partition engine); see apriori.Config.Restrict. May be nil.
	Restrict func(core.Itemset) bool
}

// SetWorkers implements core.ParallelMiner.
func (m *Miner) SetWorkers(workers int) { m.Workers = workers }

// SetRestrict implements core.RestrictableMiner.
func (m *Miner) SetRestrict(allow func(core.Itemset) bool) { m.Restrict = allow }

// SetProgress implements core.ObservableMiner.
func (m *Miner) SetProgress(fn core.ProgressFunc) { m.Progress = fn }

// Name implements core.Miner.
func (m *Miner) Name() string { return "UApriori" }

// Semantics implements core.Miner.
func (m *Miner) Semantics() core.Semantics { return core.ExpectedSupport }

// Mine implements core.Miner.
func (m *Miner) Mine(ctx context.Context, db *core.Database, th core.Thresholds) (*core.ResultSet, error) {
	if err := th.Validate(core.ExpectedSupport); err != nil {
		return nil, fmt.Errorf("%w: %v", core.ErrUnsupportedThresholds, err)
	}
	minCount := th.MinESupCount(db.N())
	cfg := apriori.Config{
		// The expected-support test is pure, so it may run on the pool too.
		ParallelDecide: true,
		Decide: func(c *apriori.Candidate) (core.Result, bool) {
			if c.ESup >= minCount-core.Eps {
				return core.Result{Itemset: c.Items, ESup: c.ESup, Var: c.Var}, true
			}
			return core.Result{}, false
		},
	}
	if !m.DisableDecrementalPrune {
		cfg.ESupPrune = minCount
	}
	cfg.Workers = m.Workers
	cfg.Name = m.Name()
	cfg.Progress = m.Progress
	cfg.Restrict = m.Restrict
	results, stats, err := apriori.Run(ctx, db, cfg)
	if err != nil {
		return nil, err
	}
	return &core.ResultSet{
		Algorithm:  m.Name(),
		Semantics:  core.ExpectedSupport,
		Thresholds: th,
		N:          db.N(),
		Results:    results,
		Stats:      stats,
	}, nil
}
