package server

import (
	"context"
	"time"

	"umine/internal/obsq"
	"umine/internal/telemetry"
)

// The server side of query-level observability (umine/internal/obsq):
// Explain runs one query with a cost collector on its progress stream and
// renders the executed plan; the dashboard assembles every live surface
// into one page.

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
	steps, totals, _ := col.Snapshot()
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

// dashboardData assembles the /debug/dashboard snapshot from every live
// surface: SLO burn, the workload profile, and the counter set's sections.
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
	return obsq.DashboardData{
		Service:        "umine",
		GeneratedAt:    time.Now().UTC().Format(time.RFC3339),
		RefreshSeconds: 2,
		SLOs:           []obsq.DashboardSLO{sloRow("mine", s.sloMine), sloRow("ingest", s.sloIngest)},
		Workload:       s.workload.Snapshot(),
		Sections:       dashboardSections(&st),
	}
}
