package server

import (
	"context"
	"fmt"
	"time"

	"umine/internal/algo"
	"umine/internal/core"
	"umine/internal/partition"
	"umine/internal/shardrpc"
)

// Scatter-gather sharding: a dataset registered with Shards = K is mined in
// the SON two-phase shape — /mine fans phase 1 out across the K sub-shards,
// gathers the candidate union, and runs the restricted full-database
// verification — with the result bit-identical to an unsharded mine, so the
// cache, the monotonic filter and singleflight coalescing apply unchanged
// (a sharded and an unsharded mine of the same query are interchangeable
// cache entries).
//
// ShardBackend is the seam for moving phase 1 out of process: the engine
// only needs "mine shard i at these thresholds and return its frequent
// itemsets", which an RPC to a process holding just that slice answers as
// well as the in-process localShards does today.

// ShardBackend mines one shard of a dataset during phase 1 of a
// scatter-gather mine. Implementations must be safe for concurrent
// MineShard calls (phase 1 fans out on the worker pool).
type ShardBackend interface {
	// Shards returns the shard count K.
	Shards() int
	// MineShard mines shard i with the named algorithm at the phase-1
	// thresholds and returns its locally frequent itemsets plus work
	// counters.
	MineShard(ctx context.Context, shard int, algorithm string, th core.Thresholds, workers int) ([]core.Itemset, core.MiningStats, error)
}

// localShards is the in-process ShardBackend: fixed-boundary slices of one
// immutable database snapshot. Boundaries derive from (N, K) alone —
// partition.Boundaries — so a re-registration or a process-per-shard
// deployment decomposes identically.
type localShards struct {
	dbs []*core.Database
}

// newLocalShards slices the snapshot into K fixed-boundary shards.
func newLocalShards(db *core.Database, k int) *localShards {
	bounds := partition.Boundaries(db.N(), k)
	dbs := make([]*core.Database, len(bounds))
	for i, r := range bounds {
		dbs[i] = db.Slice(r.Lo, r.Hi)
	}
	return &localShards{dbs: dbs}
}

// Shards implements ShardBackend.
func (l *localShards) Shards() int { return len(l.dbs) }

// MineShard implements ShardBackend.
func (l *localShards) MineShard(ctx context.Context, shard int, algorithm string, th core.Thresholds, workers int) ([]core.Itemset, core.MiningStats, error) {
	if shard < 0 || shard >= len(l.dbs) {
		return nil, core.MiningStats{}, fmt.Errorf("server: shard %d outside [0,%d)", shard, len(l.dbs))
	}
	m, err := algo.NewWith(algorithm, core.Options{Workers: workers})
	if err != nil {
		return nil, core.MiningStats{}, err
	}
	rs, err := m.Mine(ctx, l.dbs[shard], th)
	if err != nil {
		return nil, core.MiningStats{}, err
	}
	return rs.Itemsets(), rs.Stats, nil
}

// mineSharded runs one scatter-gather mine over the snapshot: the partition
// engine drives phase 1 through the shard backend and phase 2 through the
// restricted, screened target miner, and its RunStats feed the /stats
// partition counters. Results are bit-identical to s.mineFn on the same
// snapshot.
// version is the snapshot's registry version, pinned onto every remote
// shard request.
func (s *Server) mineSharded(ctx context.Context, algorithm string, d *dsEntry, db *core.Database, version uint64, k int, th core.Thresholds, opts core.Options, exec *execRecord) (*core.ResultSet, error) {
	opts.Partitions = k
	eng, err := algo.NewPartitionEngine(algorithm, opts)
	if err != nil {
		return nil, err
	}
	newPhase2 := eng.NewPhase2
	eng.NewPhase2 = func(o core.Options, allow func(core.Itemset) bool) (core.Miner, error) {
		m, err := newPhase2(o, allow)
		if err != nil {
			return nil, err
		}
		return screened(m), nil
	}
	phase1, _ := algo.PartitionPhase1(algorithm)
	backend := d.backendFor(db, version, k, s.shardBackend)
	if exec != nil {
		exec.shards = k
		switch backend.(type) {
		case *shardrpc.Backend:
			exec.backend = "shardrpc"
		default:
			exec.backend = "sharded"
		}
	}
	if got := backend.Shards(); got != k {
		// The engine fans out over Boundaries(N, k); a backend with a
		// different shard count (a misconfigured process-per-shard
		// deployment) must fail up front, not mid-scatter.
		return nil, fmt.Errorf("server: shard backend holds %d shards, dataset scatters %d", got, k)
	}
	eng.MineShard = func(ctx context.Context, shard int, _ *core.Database, th1 core.Thresholds, workers int) ([]core.Itemset, core.MiningStats, error) {
		t0 := time.Now()
		sets, stats, err := backend.MineShard(ctx, shard, phase1, th1, workers)
		s.histShard.Observe(time.Since(t0).Seconds())
		return sets, stats, err
	}
	eng.Observe = func(st partition.RunStats) {
		// One critical section per completed mine, paired with the one in
		// Stats — the snapshot-consistency invariant.
		s.partMu.Lock()
		s.part.shardedMines++
		s.part.partitions += uint64(st.Partitions)
		s.part.candidates += uint64(st.Candidates)
		s.part.mergeNanos += uint64(st.MergeElapsed.Nanoseconds())
		s.part.stragNanos += uint64(st.SlowestShard.Nanoseconds())
		s.partMu.Unlock()
		s.histMerge.Observe(st.MergeElapsed.Seconds())
		s.histPhase2.Observe(st.Phase2Elapsed.Seconds())
	}
	return eng.Mine(ctx, db, th)
}

// shardBackend builds the backend mining a snapshot's shards: the test
// substitution hook first, then the configured remote pool, then the
// in-process localShards. dsEntry.backendFor caches the result per
// (snapshot, K), so the local shards' lazily built per-item indexes (TID
// counts, vertical postings) — or the remote backend's pushed slices —
// amortize across every cold mine of the same snapshot instead of being
// rebuilt and discarded per request.
func (s *Server) shardBackend(name string, version uint64, db *core.Database, k int) ShardBackend {
	if s.newShardBackend != nil {
		return s.newShardBackend(name, version, db, k)
	}
	if p := s.cfg.ShardPool; p != nil {
		// A width the pool cannot serve (runMine clamps, so only a racing
		// reconfiguration lands here) degrades to the in-process backend —
		// the same graceful degradation a dead shard gets, and the pool
		// counts it as one failover.
		if be, err := p.Backend(name, version, db, k); err == nil {
			return be
		}
	}
	return newLocalShards(db, k)
}

// indexBytes reports the shards' derived per-item index footprint (TID
// counts + vertical postings). The arena itself is shared with the parent
// snapshot and already counted by Database.BytesResident, so only the
// index overhead is added here (the registry's indexResident hook).
func (l *localShards) indexBytes() int64 {
	var b int64
	for _, db := range l.dbs {
		b += db.IndexBytes()
	}
	return b
}
