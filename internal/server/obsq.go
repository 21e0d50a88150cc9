package server

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"umine/internal/core"
	"umine/internal/obsq"
	"umine/internal/telemetry"
)

// The server side of query-level observability (umine/internal/obsq):
// Explain runs one query with a cost collector on its progress stream and
// renders the executed plan; the ingest pre-warm replays the
// workload profile's hottest queries after an invalidation; the dashboard
// assembles every live surface into one page.

// Explain answers req exactly as Mine would — same cache, coalescing,
// backend selection, and bit-identical results — while collecting the
// executed plan and its cost breakdown. The extra cost is the collector's
// step bookkeeping and one span walk; the mined bits cannot differ from a
// plain Mine.
func (s *Server) Explain(ctx context.Context, req MineRequest) (*obsq.Explanation, error) {
	exec := &execRecord{}
	req.exec = exec

	span := telemetry.SpanFromContext(ctx)
	var tr *telemetry.Trace
	if span == nil && s.cfg.Telemetry != nil {
		tr = s.cfg.Telemetry.StartTrace("explain " + req.Dataset)
		span = tr.Root()
		ctx = telemetry.ContextWithSpan(ctx, span)
	}
	if tr != nil {
		defer tr.Finish()
	}

	// Sample the transport's payload counters around the run; the deltas
	// are this query's wire traffic (plus any concurrent neighbours' — the
	// counters are pool-wide).
	var push0, mine0 int64
	if p := s.cfg.ShardPool; p != nil {
		push0, mine0 = p.BytesPushed(), p.BytesMineRequests()
	}

	resp, err := s.Mine(ctx, req)
	if err != nil {
		return nil, err
	}

	col := exec.col
	steps, totals, events, _ := col.Snapshot()
	ex := &obsq.Explanation{
		Dataset:   req.Dataset,
		Version:   resp.DatasetVersion,
		Algorithm: req.Algorithm,
		Semantics: resp.Results.Semantics.String(),
		MinESup:   req.Thresholds.MinESup,
		MinSup:    req.Thresholds.MinSup,
		PFT:       req.Thresholds.PFT,
		Workers:   s.workers(req.Workers),
		Backend:   exec.backend,
		Path:      servePath(resp.Cache, exec.source),
		Shards:    exec.shards,
		Itemsets:  len(resp.Results.Results),
		MaxLevel:  col.MaxLevel(),
		ElapsedMS: float64(resp.Elapsed.Nanoseconds()) / 1e6,
		Totals:    obsq.CostFromStats(totals),
		Steps:     steps,
		TraceID:   span.TraceID(),
	}
	ex.ShardEvents = events
	if sched, ok := col.Exec(); ok {
		ex.Sched = &sched
	}
	if ex.Backend == "" {
		// Nothing executed: the cache (or a coalesced neighbour) answered.
		ex.Backend = "cache"
	}
	if p := s.cfg.ShardPool; p != nil {
		ex.BytesPushed = p.BytesPushed() - push0
		ex.BytesMineRequests = p.BytesMineRequests() - mine0
	}
	if span != nil {
		ex.ShardAttempts = obsq.ShardAttemptsFromSpan(span.Snapshot())
	}
	return ex, nil
}

// WorkloadProfile snapshots the rolling workload profile (the
// /debug/workload document).
func (s *Server) WorkloadProfile() obsq.WorkloadProfile {
	return s.workload.Snapshot()
}

// prewarmTimeout bounds each pre-warm mine; a query the profile considers
// hot but that cannot finish in this budget is not worth warming.
const prewarmTimeout = 30 * time.Second

// prewarmState is one dataset's pre-warm coalescing state (the same
// running/dirty shape as the ledger refresh loop).
type prewarmState struct {
	running bool
	dirty   bool
}

// kickPrewarm queues a cache pre-warm for the dataset, starting the
// coalescing goroutine if none is running. Ingests landing mid-warm mark
// dirty and the loop runs once more against the newest version.
func (s *Server) kickPrewarm(name string) {
	if s.cfg.PrewarmHot <= 0 {
		return
	}
	s.prewarmMu.Lock()
	st := s.prewarms[name]
	if st == nil {
		st = &prewarmState{}
		s.prewarms[name] = st
	}
	if st.running {
		st.dirty = true
		s.prewarmMu.Unlock()
		return
	}
	st.running = true
	s.prewarmMu.Unlock()
	go s.prewarmLoop(name, st)
}

// prewarmLoop replays the dataset's hottest observed queries so the next
// client of the post-ingest version hits a warm cache. Queries are marked
// internal: they fill the cache but stay out of the workload profile (a
// pre-warm must not make its own queries look hotter) and the SLO.
func (s *Server) prewarmLoop(name string, st *prewarmState) {
	for {
		s.prewarmMu.Lock()
		st.dirty = false
		s.prewarmMu.Unlock()
		for _, rec := range s.workload.Hottest(name, s.cfg.PrewarmHot) {
			ctx, cancel := context.WithTimeout(context.Background(), prewarmTimeout)
			_, _ = s.Mine(ctx, MineRequest{
				Dataset:   name,
				Algorithm: rec.Algorithm,
				Thresholds: core.Thresholds{
					MinESup: rec.MinESup,
					MinSup:  rec.MinSup,
					PFT:     rec.PFT,
				},
				Workers:  rec.Workers,
				internal: true,
			})
			cancel()
		}
		s.prewarmMu.Lock()
		if !st.dirty {
			st.running = false
			s.prewarmMu.Unlock()
			return
		}
		s.prewarmMu.Unlock()
	}
}

// dashboardData assembles the /debug/dashboard snapshot from every live
// surface: SLO burn, the workload profile, and the /stats counters broken
// into sections.
func (s *Server) dashboardData() obsq.DashboardData {
	st := s.Stats()
	sloRow := func(route string, slo *obsq.SLO) obsq.DashboardSLO {
		g5, t5 := slo.Window(obsq.SLOWindowShort)
		return obsq.DashboardSLO{
			Route:     route,
			TargetMS:  float64(slo.Target().Nanoseconds()) / 1e6,
			Objective: slo.Objective(),
			Burn5m:    slo.BurnRate(obsq.SLOWindowShort),
			Burn1h:    slo.BurnRate(obsq.SLOWindowLong),
			Good5m:    g5,
			Total5m:   t5,
		}
	}
	u := func(v uint64) string { return strconv.FormatUint(v, 10) }
	sections := []obsq.DashboardSection{
		{Title: "service", Rows: [][2]string{
			{"uptime", fmt.Sprintf("%.0fs", st.UptimeSeconds)},
			{"datasets", strconv.Itoa(st.Datasets)},
			{"requests", u(st.Requests)},
			{"errors", u(st.Errors)},
			{"canceled", u(st.Canceled)},
			{"in flight", strconv.FormatInt(st.InFlight, 10)},
			{"bytes resident", strconv.FormatInt(st.BytesResident, 10)},
		}},
		{Title: "cache", Rows: [][2]string{
			{"hits", u(st.CacheHits)},
			{"filtered", u(st.CacheFiltered)},
			{"misses", u(st.CacheMisses)},
			{"coalesced", u(st.Coalesced)},
			{"bypassed", u(st.Uncached)},
			{"entries", strconv.Itoa(st.CacheEntries)},
		}},
		{Title: "shards", Rows: [][2]string{
			{"sharded mines", u(st.ShardedMines)},
			{"partitions mined", u(st.PartitionsMined)},
			{"phase-2 candidates", u(st.Phase2Candidates)},
			{"remote shards", strconv.Itoa(st.RemoteShards)},
			{"retries", u(st.ShardRetries)},
			{"hedges", u(st.ShardHedges)},
			{"failovers", u(st.ShardFailovers)},
			{"repushes", u(st.ShardRepushes)},
		}},
		{Title: "ledger", Rows: [][2]string{
			{"ledgers", strconv.Itoa(st.Ledgers)},
			{"subscribers", strconv.FormatInt(st.Subscribers, 10)},
			{"incremental updates", u(st.IncrementalUpdates)},
			{"fallbacks", u(st.IncrementalFallbacks)},
		}},
	}
	if p := s.cfg.ShardPool; p != nil {
		sections[2].Rows = append(sections[2].Rows,
			[2]string{"bytes pushed", strconv.FormatInt(p.BytesPushed(), 10)},
			[2]string{"bytes mine requests", strconv.FormatInt(p.BytesMineRequests(), 10)})
	}
	return obsq.DashboardData{
		Service:        "umine",
		GeneratedAt:    time.Now().UTC().Format(time.RFC3339),
		RefreshSeconds: 2,
		SLOs:           []obsq.DashboardSLO{sloRow("mine", s.sloMine), sloRow("ingest", s.sloIngest)},
		Workload:       s.workload.Snapshot(),
		Sections:       sections,
	}
}
