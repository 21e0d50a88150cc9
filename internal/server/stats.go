package server

import (
	"fmt"
	"runtime"
	"time"

	"umine/internal/obsq"
	"umine/internal/telemetry"
)

// The serving layer's counter set. Stats() is the only code that reads the
// server's counters; /stats serves its snapshot as JSON, and /metrics and
// /debug/dashboard render the same snapshot through statRows, the one
// declaration of every exported counter and gauge.

// Stats is a point-in-time snapshot of the server's counters. Fields tagged
// json:"-" are rendered on /metrics or the dashboard only.
type Stats struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Datasets      int     `json:"datasets"`
	Requests      uint64  `json:"requests"`
	CacheHits     uint64  `json:"cache_hits"`
	CacheFiltered uint64  `json:"cache_filtered"`
	CacheMisses   uint64  `json:"cache_misses"`
	Coalesced     uint64  `json:"coalesced"`
	Uncached      uint64  `json:"uncached"`
	Ingests       uint64  `json:"ingests"`
	Errors        uint64  `json:"errors"`
	// Canceled counts mining requests aborted by cancellation or deadline
	// (while queued or in flight); every canceled request also counts as an
	// error.
	Canceled     uint64 `json:"canceled"`
	InFlight     int64  `json:"in_flight"`
	CacheEntries int    `json:"cache_entries"`
	// Scatter-gather counters: completed sharded mines, partitions mined
	// across them (phase 1), candidates the phase-2 verification checked,
	// and cumulative candidate-union merge time. ShardSlowestMS accumulates
	// each sharded mine's slowest single shard (the straggler) — divided by
	// ShardedMines it is the mean per-mine straggler cost, directly
	// comparable against PartitionMergeMS for the phase-1-vs-merge latency
	// breakdown.
	ShardedMines     uint64  `json:"sharded_mines"`
	PartitionsMined  uint64  `json:"partitions_mined"`
	Phase2Candidates uint64  `json:"phase2_candidates"`
	PartitionMergeMS float64 `json:"partition_merge_ms"`
	ShardSlowestMS   float64 `json:"shard_slowest_ms"`
	// Remote-shard robustness counters, read from the shard pool (zero
	// unless one is configured): retried shard RPC attempts, hedged
	// duplicates launched against stragglers, shards failed over to
	// in-process mining, and coherence re-pushes after a shard rejected a
	// pinned version.
	ShardRetries   uint64 `json:"shard_retries"`
	ShardHedges    uint64 `json:"shard_hedges"`
	ShardFailovers uint64 `json:"shard_failovers"`
	ShardRepushes  uint64 `json:"shard_repushes"`
	// RemoteShards is the configured shard pool's width (0 = in-process).
	RemoteShards int `json:"remote_shards,omitempty"`
	// BytesPushed / BytesMineRequests are the shard pool's cumulative
	// request-body bytes of /push and /mine1 RPCs.
	BytesPushed       int64 `json:"-"`
	BytesMineRequests int64 `json:"-"`
	// Continuous-query counters: registered incremental ledgers, live
	// subscribers, ledger refreshes applied, and how many of those fell
	// back to a full rebuild (window eviction, shrink, border exhaustion,
	// or an algorithm with no candidate floor). BorderItemsets sums the
	// ledgers' tracked-below-cutoff band sizes.
	Ledgers              int    `json:"ledgers"`
	Subscribers          int64  `json:"subscribers"`
	IncrementalUpdates   uint64 `json:"incremental_updates"`
	IncrementalFallbacks uint64 `json:"incremental_fallbacks"`
	BorderItemsets       int    `json:"-"`
	// BytesResident totals the datasets' arena footprints (columns, offset
	// tables, built vertical indexes); DatasetBytesResident breaks it down
	// per dataset. Sharded views share one arena, counted once.
	BytesResident        int64            `json:"bytes_resident"`
	DatasetBytesResident map[string]int64 `json:"dataset_bytes_resident,omitempty"`
}

// Stats snapshots the server counters.
func (s *Server) Stats() Stats {
	st := Stats{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Datasets:      s.reg.len(),
		Requests:      s.requests.Load(),
		CacheHits:     s.cacheHits.Load(),
		CacheFiltered: s.cacheFiltered.Load(),
		CacheMisses:   s.cacheMisses.Load(),
		Coalesced:     s.coalesced.Load(),
		Uncached:      s.uncached.Load(),
		Ingests:       s.ingests.Load(),
		Errors:        s.errorCount.Load(),
		Canceled:      s.canceledCount.Load(),
		InFlight:      s.inFlight.Load(),

		Subscribers:          s.subscribers.Load(),
		IncrementalUpdates:   s.incUpdates.Load(),
		IncrementalFallbacks: s.incFallbacks.Load(),
	}
	// The partition block is read in one critical section — the same one
	// the sharded-mine Observe hook writes under — so the snapshot is
	// internally consistent: a scrape racing a sharded mine sees either
	// all of that mine's counters or none, and partitions_mined can never
	// lead sharded_mines.
	s.partMu.Lock()
	st.ShardedMines = s.part.shardedMines
	st.PartitionsMined = s.part.partitions
	st.Phase2Candidates = s.part.candidates
	st.PartitionMergeMS = float64(s.part.mergeNanos) / 1e6
	st.ShardSlowestMS = float64(s.part.stragNanos) / 1e6
	s.partMu.Unlock()
	if p := s.cfg.ShardPool; p != nil {
		st.RemoteShards = p.Width()
		st.ShardRetries = p.Retries()
		st.ShardHedges = p.Hedges()
		st.ShardFailovers = p.Failovers()
		st.ShardRepushes = p.Repushes()
		st.BytesPushed = p.BytesPushed()
		st.BytesMineRequests = p.BytesMineRequests()
	}
	if s.cache != nil {
		st.CacheEntries = s.cache.len()
	}
	ledgers := s.ledgerEntries()
	st.Ledgers = len(ledgers)
	for _, e := range ledgers {
		st.BorderItemsets += e.led.Stats().Border
	}
	for _, d := range s.reg.list() {
		// info() folds in any cached shard backend's per-view index bytes,
		// so /stats and /datasets agree on a sharded dataset's footprint.
		b := d.info().BytesResident
		if st.DatasetBytesResident == nil {
			st.DatasetBytesResident = make(map[string]int64)
		}
		st.DatasetBytesResident[d.name] = b
		st.BytesResident += b
	}
	return st
}

// statRow declares one exported counter or gauge: its dashboard section and
// row, its /metrics series (metric "" = dashboard only), and how to read it
// from a Stats snapshot. Adding a counter takes a Stats field, a line in
// Stats() and a row here.
type statRow struct {
	section, row string
	format       string // dashboard printf format of the value; "" = "%.0f"

	metric, typ, help string
	labels            telemetry.Labels

	value func(*Stats) float64
}

// statRows is the server's counter set, in dashboard order (rows of one
// section are contiguous).
var statRows = []statRow{
	{section: "service", row: "uptime", format: "%.0fs",
		metric: "umine_process_uptime_seconds", typ: telemetry.Gauge, help: "Seconds since the serving process started.",
		value: func(st *Stats) float64 { return st.UptimeSeconds }},
	{section: "service", row: "datasets",
		metric: "umine_datasets", typ: telemetry.Gauge, help: "Registered datasets.",
		value: func(st *Stats) float64 { return float64(st.Datasets) }},
	{section: "service", row: "requests",
		metric: "umine_requests_total", typ: telemetry.Counter, help: "Mine requests received.",
		value: func(st *Stats) float64 { return float64(st.Requests) }},
	{section: "service", row: "ingests",
		metric: "umine_ingests_total", typ: telemetry.Counter, help: "Ingest batches applied.",
		value: func(st *Stats) float64 { return float64(st.Ingests) }},
	{section: "service", row: "errors",
		metric: "umine_errors_total", typ: telemetry.Counter, help: "Failed mine requests.",
		value: func(st *Stats) float64 { return float64(st.Errors) }},
	{section: "service", row: "canceled",
		metric: "umine_canceled_total", typ: telemetry.Counter, help: "Mine requests aborted by cancellation or deadline.",
		value: func(st *Stats) float64 { return float64(st.Canceled) }},
	{section: "service", row: "in flight",
		metric: "umine_in_flight", typ: telemetry.Gauge, help: "Mining jobs executing or queued past the semaphore.",
		value: func(st *Stats) float64 { return float64(st.InFlight) }},
	{section: "service", row: "bytes resident",
		metric: "umine_bytes_resident", typ: telemetry.Gauge, help: "Total arena bytes across registered datasets.",
		value: func(st *Stats) float64 { return float64(st.BytesResident) }},

	{section: "cache", row: "hits",
		metric: "umine_cache_requests_total", typ: telemetry.Counter, help: cacheRequestsHelp, labels: telemetry.Labels{"outcome": CacheHit},
		value: func(st *Stats) float64 { return float64(st.CacheHits) }},
	{section: "cache", row: "filtered",
		metric: "umine_cache_requests_total", typ: telemetry.Counter, help: cacheRequestsHelp, labels: telemetry.Labels{"outcome": CacheFiltered},
		value: func(st *Stats) float64 { return float64(st.CacheFiltered) }},
	{section: "cache", row: "misses",
		metric: "umine_cache_requests_total", typ: telemetry.Counter, help: cacheRequestsHelp, labels: telemetry.Labels{"outcome": CacheMiss},
		value: func(st *Stats) float64 { return float64(st.CacheMisses) }},
	{section: "cache", row: "coalesced",
		metric: "umine_cache_requests_total", typ: telemetry.Counter, help: cacheRequestsHelp, labels: telemetry.Labels{"outcome": CacheCoalesced},
		value: func(st *Stats) float64 { return float64(st.Coalesced) }},
	{section: "cache", row: "bypassed",
		metric: "umine_cache_requests_total", typ: telemetry.Counter, help: cacheRequestsHelp, labels: telemetry.Labels{"outcome": CacheBypassed},
		value: func(st *Stats) float64 { return float64(st.Uncached) }},
	{section: "cache", row: "entries",
		metric: "umine_cache_entries", typ: telemetry.Gauge, help: "Result-cache entries resident.",
		value: func(st *Stats) float64 { return float64(st.CacheEntries) }},

	{section: "shards", row: "sharded mines",
		metric: "umine_sharded_mines_total", typ: telemetry.Counter, help: "Completed scatter-gather mines.",
		value: func(st *Stats) float64 { return float64(st.ShardedMines) }},
	{section: "shards", row: "partitions mined",
		metric: "umine_partitions_mined_total", typ: telemetry.Counter, help: "Phase-1 partitions mined across sharded mines.",
		value: func(st *Stats) float64 { return float64(st.PartitionsMined) }},
	{section: "shards", row: "phase-2 candidates",
		metric: "umine_phase2_candidates_total", typ: telemetry.Counter, help: "Candidates verified by phase 2 across sharded mines.",
		value: func(st *Stats) float64 { return float64(st.Phase2Candidates) }},
	{section: "shards", row: "merge ms", format: "%.1f",
		value: func(st *Stats) float64 { return st.PartitionMergeMS }},
	{section: "shards", row: "slowest shard ms", format: "%.1f",
		value: func(st *Stats) float64 { return st.ShardSlowestMS }},
	{section: "shards", row: "remote shards",
		value: func(st *Stats) float64 { return float64(st.RemoteShards) }},
	{section: "shards", row: "retries",
		metric: "umine_shard_retries_total", typ: telemetry.Counter, help: "Shard RPC attempts retried.",
		value: func(st *Stats) float64 { return float64(st.ShardRetries) }},
	{section: "shards", row: "hedges",
		metric: "umine_shard_hedges_total", typ: telemetry.Counter, help: "Hedged duplicate shard requests launched.",
		value: func(st *Stats) float64 { return float64(st.ShardHedges) }},
	{section: "shards", row: "failovers",
		metric: "umine_shard_failovers_total", typ: telemetry.Counter, help: "Shards failed over to in-process mining.",
		value: func(st *Stats) float64 { return float64(st.ShardFailovers) }},
	{section: "shards", row: "repushes",
		metric: "umine_shard_repushes_total", typ: telemetry.Counter, help: "Slices re-pushed after a stale-pin reject.",
		value: func(st *Stats) float64 { return float64(st.ShardRepushes) }},
	{section: "shards", row: "bytes pushed",
		value: func(st *Stats) float64 { return float64(st.BytesPushed) }},
	{section: "shards", row: "bytes mine requests",
		value: func(st *Stats) float64 { return float64(st.BytesMineRequests) }},

	{section: "ledger", row: "ledgers",
		value: func(st *Stats) float64 { return float64(st.Ledgers) }},
	{section: "ledger", row: "subscribers",
		metric: "umine_subscribers", typ: telemetry.Gauge, help: "Live continuous-query subscribers.",
		value: func(st *Stats) float64 { return float64(st.Subscribers) }},
	{section: "ledger", row: "border itemsets",
		metric: "umine_incremental_border_itemsets", typ: telemetry.Gauge, help: "Itemsets tracked below the cutoff across registered ledgers.",
		value: func(st *Stats) float64 { return float64(st.BorderItemsets) }},
	{section: "ledger", row: "incremental updates",
		metric: "umine_incremental_updates_total", typ: telemetry.Counter, help: "Ledger refreshes applied for continuous queries.",
		value: func(st *Stats) float64 { return float64(st.IncrementalUpdates) }},
	{section: "ledger", row: "fallbacks",
		metric: "umine_incremental_fallbacks_total", typ: telemetry.Counter, help: "Ledger refreshes that fell back to a full rebuild.",
		value: func(st *Stats) float64 { return float64(st.IncrementalFallbacks) }},
}

const cacheRequestsHelp = "Mine requests by cache outcome."

// registerMetrics renders statRows on /metrics, next to the process, build
// and SLO gauges, all from one Stats snapshot per scrape, and creates the
// per-phase latency histograms.
func (s *Server) registerMetrics(reg *telemetry.Registry) {
	var series []telemetry.Series[*Stats]
	for _, r := range statRows {
		if r.metric != "" {
			series = append(series, telemetry.Series[*Stats]{
				Name: r.metric, Help: r.help, Type: r.typ, Labels: r.labels, Value: r.value})
		}
	}
	series = append(series,
		telemetry.Series[*Stats]{Name: "umine_goroutines", Help: "Goroutines in the serving process.", Type: telemetry.Gauge,
			Value: func(*Stats) float64 { return float64(runtime.NumGoroutine()) }},
		telemetry.Series[*Stats]{Name: "umine_build_info", Help: "Build metadata; always 1.", Type: telemetry.Gauge,
			Labels: telemetry.BuildInfoLabels(), Value: func(*Stats) float64 { return 1 }})
	for _, route := range []struct {
		name string
		slo  *obsq.SLO
	}{{"mine", s.sloMine}, {"ingest", s.sloIngest}} {
		slo := route.slo
		series = append(series, telemetry.Series[*Stats]{
			Name: "umine_slo_target_seconds", Help: "Per-route SLO latency target.", Type: telemetry.Gauge,
			Labels: telemetry.Labels{"route": route.name},
			Value:  func(*Stats) float64 { return slo.Target().Seconds() }})
		for _, win := range []struct {
			label string
			d     time.Duration
		}{{"5m", obsq.SLOWindowShort}, {"1h", obsq.SLOWindowLong}} {
			d := win.d
			series = append(series, telemetry.Series[*Stats]{
				Name: "umine_slo_burn_rate", Help: "Error-budget burn rate over the trailing window (1.0 = on budget).", Type: telemetry.Gauge,
				Labels: telemetry.Labels{"route": route.name, "window": win.label},
				Value:  func(*Stats) float64 { return slo.BurnRate(d) }})
		}
	}
	telemetry.RegisterSnapshot(reg, func() *Stats { st := s.Stats(); return &st }, series)

	s.histMine = reg.Histogram("umine_mine_duration_seconds",
		"End-to-end latency of Mine requests (cache hits included).", nil, nil)
	s.histShard = reg.Histogram("umine_shard_phase1_duration_seconds",
		"Latency of one shard's phase-1 mine inside a scatter (retries and failover included).", nil, nil)
	s.histMerge = reg.Histogram("umine_merge_duration_seconds",
		"Latency of the phase-1 candidate-union merge.", nil, nil)
	s.histPhase2 = reg.Histogram("umine_phase2_duration_seconds",
		"Latency of the restricted phase-2 verification mine.", nil, nil)
	s.histNotify = reg.Histogram("umine_ingest_notify_duration_seconds",
		"Latency from ingest arrival to the refreshed diff's broadcast.", nil, nil)
}

// dashboardSections renders statRows as the dashboard's state sections.
func dashboardSections(st *Stats) []obsq.DashboardSection {
	var out []obsq.DashboardSection
	for _, r := range statRows {
		if len(out) == 0 || out[len(out)-1].Title != r.section {
			out = append(out, obsq.DashboardSection{Title: r.section})
		}
		format := r.format
		if format == "" {
			format = "%.0f"
		}
		sec := &out[len(out)-1]
		sec.Rows = append(sec.Rows, [2]string{r.row, fmt.Sprintf(format, r.value(st))})
	}
	return out
}
