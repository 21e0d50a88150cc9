// Package obsq is the platform's query-level observability layer: where
// package telemetry answers "where did this request spend its time" with
// span trees and process metrics, obsq answers "why was this query slow" —
// which execution path it took (cache hit, monotone filter, incremental
// ledger, scatter-gather, local fallback), which physical plan each counting
// pass chose (horizontal scan vs vertical postings intersection), what it
// scanned and pruned per level, and what the shard RPCs cost in attempts and
// bytes.
//
// Four pieces:
//
//   - Collector (this file): the one observer of a mine's progress stream.
//     It turns each checkpoint into a costed plan step and, under an
//     optional parent span, a trace span covering the same interval — no
//     miner changes, and zero cost when nothing observes the mine (the
//     nil-ProgressFunc path).
//
//   - Explanation (explain.go): the structured /explain (and umine -explain)
//     document: the executed plan as a sequence of costed steps, the run
//     totals, and the shard attempt timeline extracted from the request's
//     span tree ("attempt"/"hedge"/"repush"/"failover" spans with their
//     outcome and bytes attributes).
//
//   - Workload (workload.go): a rolling, exponentially-decayed profile of
//     the query mix — arrival rate, latency quantiles and cache/ledger hit
//     ratios per (dataset, algorithm, threshold band) — served at
//     /debug/workload and used to pre-warm the result cache for the hottest
//     triples after an ingest invalidates them.
//
//   - SLO (slo.go): per-route latency objectives with multi-window burn-rate
//     gauges, so a scrape shows not just the p99 but how fast the error
//     budget is burning.
//
// Package dashboard.go renders all of it as one dependency-free HTML page.
package obsq

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"umine/internal/core"
	"umine/internal/telemetry"
)

// Step is one costed plan step of an executed query: a level boundary, a
// completed prefix subtree, or one partition's phase-1 mine. Counter fields
// are deltas attributable to this step (PeakTrackedBytes excepted — it is
// the high-water mark observed so far).
type Step struct {
	// Phase is the checkpoint kind: "level", "subtree" or "partition".
	Phase string `json:"phase"`
	// Level is the candidate length (level), rooting prefix depth (subtree)
	// or 1-based partition ordinal (partition).
	Level int `json:"level"`
	// Plan names the counting plan the step's passes executed: "horizontal",
	// "vertical", "mixed" (both within one step) or "" when the step ran no
	// counting pass.
	Plan string `json:"plan,omitempty"`
	// ElapsedMS covers the interval since the previous checkpoint.
	ElapsedMS float64 `json:"elapsed_ms"`

	CandidatesGenerated int   `json:"candidates_generated,omitempty"`
	CandidatesPruned    int   `json:"candidates_pruned,omitempty"`
	ChernoffPruned      int   `json:"chernoff_pruned,omitempty"`
	ExactEvaluations    int   `json:"exact_evaluations,omitempty"`
	DBScans             int   `json:"db_scans,omitempty"`
	TransactionsScanned int   `json:"transactions_scanned,omitempty"`
	PostingsProbed      int   `json:"postings_probed,omitempty"`
	PeakTrackedBytes    int64 `json:"peak_tracked_bytes,omitempty"`
}

// ShardEvent is one shard-robustness progress event observed during the run
// (the transport's own timeline comes from span attributes; these are the
// coordinator-side counter events).
type ShardEvent struct {
	Kind  string    `json:"kind"` // shard-retry | shard-hedge | shard-failover | shard-repush
	Shard int       `json:"shard"`
	At    time.Time `json:"at"`
}

// Collector is the one consumer of a mine's progress stream: each level,
// subtree or partition checkpoint becomes a costed Step and, under an
// optional parent span, a completed child span covering the same interval,
// so /explain steps and trace spans never disagree on timing. It implements
// the core.ProgressFunc contract (fast, concurrent-safe, no event retention
// beyond copying). The zero Collector is not usable; construct with
// NewCollector.
type Collector struct {
	parent *telemetry.Span

	mu     sync.Mutex
	lastT  time.Time
	last   core.MiningStats
	steps  []Step
	events []ShardEvent
	total  core.MiningStats
	exec   core.ExecStats
	hasEx  bool
	done   bool
	level  int
}

// NewCollector starts a collector; the construction time anchors the first
// step's interval. Checkpoint spans are recorded under parent, which may be
// nil (steps only).
func NewCollector(parent *telemetry.Span) *Collector {
	return &Collector{parent: parent, lastT: time.Now()}
}

// Progress returns the collector's observer function (nil for a nil
// collector, which disables observation at zero cost).
func (c *Collector) Progress() core.ProgressFunc {
	if c == nil {
		return nil
	}
	return c.observe
}

func (c *Collector) observe(ev core.ProgressEvent) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	var step Step
	switch ev.Phase {
	case core.PhaseShardRetry, core.PhaseShardHedge, core.PhaseShardFailover, core.PhaseShardRepush:
		// Administrative events, not execution checkpoints: the shardrpc
		// backend records their spans itself, with better attribution.
		c.events = append(c.events, ShardEvent{Kind: string(ev.Phase), Shard: ev.Level, At: now})
		return
	case core.PhaseExec:
		// Execution-layer counters (fan-out tasks, kernel dispatch) arrive
		// once per mining run; partitioned and sharded queries run several
		// mines, so the deltas sum.
		c.exec.Add(ev.Exec)
		c.hasEx = true
		return
	case core.PhaseDone:
		// The done event's interval is the enclosing mine span itself.
		c.total = ev.Stats
		c.done = true
		c.level = ev.Level
		return
	case core.PhasePartition:
		// Partition events carry the completed partition's own counters, not
		// a cumulative snapshot — use them directly. They also fold into the
		// baseline: the partition engine offsets every phase-2 snapshot by
		// the summed phase-1 stats, so without this the first level step
		// would re-attribute all of phase 1 to itself.
		c.last.Add(ev.Stats)
		step = stepFromDelta(string(ev.Phase), ev.Level, ev.Stats)
	default:
		// Level/subtree events carry cumulative snapshots; attribute the
		// delta since the previous snapshot to this step. Subtree snapshots
		// from parallel workers are not globally ordered, so deltas clamp at
		// zero and the baseline advances field-wise — observability must
		// never go negative.
		delta := subClamp(ev.Stats, c.last)
		c.last = maxStats(c.last, ev.Stats)
		step = stepFromDelta(string(ev.Phase), ev.Level, delta)
		step.PeakTrackedBytes = ev.Stats.PeakTrackedBytes
	}
	// One interval per checkpoint, shared by the step and its span;
	// concurrent checkpoints are attributed back-to-back in lock order.
	start := c.lastT
	c.lastT = now
	step.ElapsedMS = float64(now.Sub(start).Nanoseconds()) / 1e6
	c.steps = append(c.steps, step)
	c.parent.Record(checkpointName(ev), start, now,
		[2]string{"algorithm", ev.Algorithm},
		[2]string{"candidates", strconv.Itoa(ev.Stats.CandidatesGenerated)},
	)
}

// checkpointName labels a checkpoint span after its phase and ordinal.
func checkpointName(ev core.ProgressEvent) string {
	switch ev.Phase {
	case core.PhaseLevel:
		return fmt.Sprintf("level %d", ev.Level)
	case core.PhaseSubtree:
		return fmt.Sprintf("subtree (depth %d)", ev.Level)
	case core.PhasePartition:
		return fmt.Sprintf("partition %d", ev.Level)
	}
	return string(ev.Phase)
}

// stepFromDelta renders one step from per-step counters.
func stepFromDelta(phase string, level int, d core.MiningStats) Step {
	return Step{
		Phase:               phase,
		Level:               level,
		Plan:                planLabel(d.HorizontalPlans, d.VerticalPlans),
		CandidatesGenerated: d.CandidatesGenerated,
		CandidatesPruned:    d.CandidatesPruned,
		ChernoffPruned:      d.ChernoffPruned,
		ExactEvaluations:    d.ExactEvaluations,
		DBScans:             d.DBScans,
		TransactionsScanned: d.TransactionsScanned,
		PostingsProbed:      d.PostingsProbed,
		PeakTrackedBytes:    d.PeakTrackedBytes,
	}
}

// planLabel names the counting plan(s) a step's deltas reveal.
func planLabel(horizontal, vertical int) string {
	switch {
	case horizontal > 0 && vertical > 0:
		return "mixed"
	case vertical > 0:
		return "vertical"
	case horizontal > 0:
		return "horizontal"
	}
	return ""
}

// subClamp is a field-wise a−b clamped at zero (PeakTrackedBytes carries the
// max, not a difference, and is left to the caller).
func subClamp(a, b core.MiningStats) core.MiningStats {
	d := core.MiningStats{
		CandidatesGenerated: a.CandidatesGenerated - b.CandidatesGenerated,
		CandidatesPruned:    a.CandidatesPruned - b.CandidatesPruned,
		ChernoffPruned:      a.ChernoffPruned - b.ChernoffPruned,
		ExactEvaluations:    a.ExactEvaluations - b.ExactEvaluations,
		DBScans:             a.DBScans - b.DBScans,
		TransactionsScanned: a.TransactionsScanned - b.TransactionsScanned,
		PostingsProbed:      a.PostingsProbed - b.PostingsProbed,
		HorizontalPlans:     a.HorizontalPlans - b.HorizontalPlans,
		VerticalPlans:       a.VerticalPlans - b.VerticalPlans,
	}
	clampInt := func(v *int) {
		if *v < 0 {
			*v = 0
		}
	}
	clampInt(&d.CandidatesGenerated)
	clampInt(&d.CandidatesPruned)
	clampInt(&d.ChernoffPruned)
	clampInt(&d.ExactEvaluations)
	clampInt(&d.DBScans)
	clampInt(&d.TransactionsScanned)
	clampInt(&d.PostingsProbed)
	clampInt(&d.HorizontalPlans)
	clampInt(&d.VerticalPlans)
	return d
}

// maxStats is the field-wise maximum — the baseline update that keeps
// subtree deltas monotone under parallel emission.
func maxStats(a, b core.MiningStats) core.MiningStats {
	maxInt := func(x, y int) int {
		if x > y {
			return x
		}
		return y
	}
	out := core.MiningStats{
		CandidatesGenerated: maxInt(a.CandidatesGenerated, b.CandidatesGenerated),
		CandidatesPruned:    maxInt(a.CandidatesPruned, b.CandidatesPruned),
		ChernoffPruned:      maxInt(a.ChernoffPruned, b.ChernoffPruned),
		ExactEvaluations:    maxInt(a.ExactEvaluations, b.ExactEvaluations),
		DBScans:             maxInt(a.DBScans, b.DBScans),
		TransactionsScanned: maxInt(a.TransactionsScanned, b.TransactionsScanned),
		PostingsProbed:      maxInt(a.PostingsProbed, b.PostingsProbed),
		HorizontalPlans:     maxInt(a.HorizontalPlans, b.HorizontalPlans),
		VerticalPlans:       maxInt(a.VerticalPlans, b.VerticalPlans),
	}
	out.PeakTrackedBytes = a.PeakTrackedBytes
	if b.PeakTrackedBytes > out.PeakTrackedBytes {
		out.PeakTrackedBytes = b.PeakTrackedBytes
	}
	return out
}

// Snapshot returns the collected plan steps, the run totals (the final
// "done" counters when the run completed, the cumulative baseline
// otherwise), the shard-robustness events, and whether a done event was
// seen.
func (c *Collector) Snapshot() (steps []Step, totals core.MiningStats, events []ShardEvent, done bool) {
	if c == nil {
		return nil, core.MiningStats{}, nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	steps = append([]Step(nil), c.steps...)
	events = append([]ShardEvent(nil), c.events...)
	totals = c.last
	if c.done {
		totals = c.total
	}
	return steps, totals, events, c.done
}

// Exec returns the summed execution-layer counters and whether any PhaseExec
// event was observed (miners with no fan-out or kernel dispatch to report
// emit none).
func (c *Collector) Exec() (core.ExecStats, bool) {
	if c == nil {
		return core.ExecStats{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.exec, c.hasEx
}

// MaxLevel is the deepest level the run reported ("done" event), 0 if none.
func (c *Collector) MaxLevel() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.level
}
