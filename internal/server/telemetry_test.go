package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"umine/internal/core"
	"umine/internal/telemetry"
)

// TestStatsPartitionSnapshotConsistent documents the snapshot invariant of
// /stats and /metrics: the partition counters are written in one critical
// section per completed sharded mine and read in one critical section per
// Stats snapshot, and a /metrics scrape renders all its families from one
// snapshot, so no scrape can ever observe partitions_mined ahead of (or
// behind) sharded_mines × K — even while mines complete concurrently.
func TestStatsPartitionSnapshotConsistent(t *testing.T) {
	const k = 4
	db := shardTestDB()
	hub := telemetry.NewHub(telemetry.HubConfig{TraceCapacity: 8})
	s := New(Config{DefaultWorkers: 2, Telemetry: hub})
	if _, err := s.RegisterDatabase("d", db, RegisterOptions{Shards: k}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	done := make(chan struct{})
	var wg sync.WaitGroup
	// Scrapers: every observed snapshot, on /stats and on /metrics, must
	// satisfy the invariant exactly.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				st := s.Stats()
				if st.PartitionsMined != st.ShardedMines*k {
					t.Errorf("torn snapshot: partitions_mined=%d, sharded_mines=%d × %d",
						st.PartitionsMined, st.ShardedMines, k)
					return
				}
				if st.ShardedMines > 0 && st.Phase2Candidates == 0 {
					t.Error("torn snapshot: sharded mine counted before its candidates")
					return
				}
				m, err := scrapeMetrics(ts)
				if err != nil {
					t.Error(err)
					return
				}
				sharded, parts, cands := m["umine_sharded_mines_total"], m["umine_partitions_mined_total"], m["umine_phase2_candidates_total"]
				if parts != k*sharded {
					t.Errorf("torn scrape: umine_partitions_mined_total=%g, umine_sharded_mines_total=%g × %d", parts, sharded, k)
					return
				}
				if sharded > 0 && cands == 0 {
					t.Error("torn scrape: sharded mine counted before its phase-2 candidates")
					return
				}
			}
		}()
	}

	// Concurrent no-cache sharded mines keep the counters moving.
	var mines sync.WaitGroup
	for g := 0; g < 3; g++ {
		mines.Add(1)
		go func() {
			defer mines.Done()
			for i := 0; i < 5; i++ {
				_, err := s.Mine(context.Background(), MineRequest{
					Dataset: "d", Algorithm: "UApriori",
					Thresholds: core.Thresholds{MinESup: 0.05},
					NoCache:    true,
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	mines.Wait()
	close(done)
	wg.Wait()

	st := s.Stats()
	if st.ShardedMines != 15 || st.PartitionsMined != 15*k {
		t.Fatalf("final counters: sharded=%d partitions=%d, want 15/%d", st.ShardedMines, st.PartitionsMined, 15*k)
	}
}

// promLine matches one exposition sample: name{labels} value.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+$`)

// scrapeMetrics fetches /metrics and parses each sample into a map keyed by
// its series (name{labels}).
func scrapeMetrics(ts *httptest.Server) (map[string]float64, error) {
	res, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer res.Body.Close()
	if res.StatusCode != 200 {
		return nil, fmt.Errorf("/metrics: HTTP %d", res.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(res.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !promLine.MatchString(line) {
			return nil, fmt.Errorf("malformed exposition line: %q", line)
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("exposition line %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// TestCounterSetOneSnapshot: /stats, /metrics and /debug/dashboard render
// one counter set. After a sharded mine over a shard pool, a cache hit, a
// canceled mine and an ingest, every statRows counter reads the same on
// /stats and /metrics, and every row appears on the dashboard with the
// value of a Stats snapshot.
func TestCounterSetOneSnapshot(t *testing.T) {
	hub := telemetry.NewHub(telemetry.HubConfig{TraceCapacity: 8})
	s := New(Config{DefaultWorkers: 2, Telemetry: hub, ShardPool: startShardCluster(t, 2)})
	if _, err := s.RegisterDatabase("d", shardTestDB(), RegisterOptions{Shards: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RegisterDatabase("flat", testDB(t), RegisterOptions{}); err != nil {
		t.Fatal(err)
	}
	// Plain mines block until their deadline: the "flat" mine below is the
	// canceled one. The sharded path does not use mineFn.
	s.mineFn = func(ctx context.Context, _ string, _ *core.Database, _ core.Thresholds, _ core.Options) (*core.ResultSet, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	ctx := context.Background()
	sharded := MineRequest{Dataset: "d", Algorithm: "UApriori", Thresholds: core.Thresholds{MinESup: 0.05}}
	if resp, err := s.Mine(ctx, sharded); err != nil || resp.Cache != CacheMiss {
		t.Fatalf("sharded mine: %v (cache %v)", err, resp)
	}
	if resp, err := s.Mine(ctx, sharded); err != nil || resp.Cache != CacheHit {
		t.Fatalf("repeat mine: %v (cache %v)", err, resp)
	}
	if _, err := s.Mine(ctx, MineRequest{Dataset: "flat", Algorithm: "UApriori",
		Thresholds: core.Thresholds{MinESup: 0.2}, Timeout: 10 * time.Millisecond}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("timed-out mine: err=%v, want context.DeadlineExceeded", err)
	}
	if _, err := s.Ingest(ctx, "d", [][]core.Unit{{{Item: 0, Prob: 0.9}}}); err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	res, err := ts.Client().Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]any
	err = json.NewDecoder(res.Body).Decode(&keys)
	res.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	m, err := scrapeMetrics(ts)
	if err != nil {
		t.Fatal(err)
	}
	// Each /metrics series and the /stats key it must equal. Uptime moves
	// between the two reads, and border itemsets is not a /stats key.
	pairs := map[string]string{
		"umine_datasets":                                  "datasets",
		"umine_requests_total":                            "requests",
		"umine_ingests_total":                             "ingests",
		"umine_errors_total":                              "errors",
		"umine_canceled_total":                            "canceled",
		"umine_in_flight":                                 "in_flight",
		"umine_bytes_resident":                            "bytes_resident",
		`umine_cache_requests_total{outcome="hit"}`:       "cache_hits",
		`umine_cache_requests_total{outcome="filtered"}`:  "cache_filtered",
		`umine_cache_requests_total{outcome="miss"}`:      "cache_misses",
		`umine_cache_requests_total{outcome="coalesced"}`: "coalesced",
		`umine_cache_requests_total{outcome="bypassed"}`:  "uncached",
		"umine_cache_entries":                             "cache_entries",
		"umine_sharded_mines_total":                       "sharded_mines",
		"umine_partitions_mined_total":                    "partitions_mined",
		"umine_phase2_candidates_total":                   "phase2_candidates",
		"umine_shard_retries_total":                       "shard_retries",
		"umine_shard_hedges_total":                        "shard_hedges",
		"umine_shard_failovers_total":                     "shard_failovers",
		"umine_shard_repushes_total":                      "shard_repushes",
		"umine_subscribers":                               "subscribers",
		"umine_incremental_updates_total":                 "incremental_updates",
		"umine_incremental_fallbacks_total":               "incremental_fallbacks",
	}
	for series, key := range pairs {
		got, ok := m[series]
		if !ok {
			t.Errorf("/metrics has no %s", series)
			continue
		}
		if want, _ := keys[key].(float64); got != want {
			t.Errorf("%s = %g on /metrics, /stats %s = %v", series, got, key, keys[key])
		}
	}
	for _, want := range []string{"requests", "sharded_mines", "cache_hits", "canceled", "ingests", "shard_repushes"} {
		if v, _ := keys[want].(float64); v == 0 {
			t.Errorf("/stats %s = 0: the traffic did not move it", want)
		}
	}
	// Every table series except the two skipped above is cross-checked.
	tableSeries := 0
	for _, r := range statRows {
		if r.metric != "" {
			tableSeries++
		}
	}
	if tableSeries-2 != len(pairs) {
		t.Errorf("table has %d /metrics series, %d cross-checked against /stats", tableSeries, len(pairs))
	}

	res, err = ts.Client().Get(ts.URL + "/debug/dashboard")
	if err != nil {
		t.Fatal(err)
	}
	page, err := io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, title := range []string{"service", "cache", "shards", "ledger"} {
		if !strings.Contains(string(page), "<h2>"+title+"</h2>") {
			t.Errorf("dashboard missing section %q", title)
		}
	}
	now := s.Stats()
	rows := 0
	for _, sec := range dashboardSections(&now) {
		for _, row := range sec.Rows {
			cell := "<th>" + row[0] + "</th><td>" + row[1] + "</td>"
			if row[0] == "uptime" {
				cell = "<th>uptime</th>"
			}
			if !strings.Contains(string(page), cell) {
				t.Errorf("dashboard missing row %s", cell)
			}
			rows++
		}
	}
	if rows != len(statRows) {
		t.Errorf("dashboard renders %d rows, table has %d", rows, len(statRows))
	}
}

// TestMetricsEndpoint: /metrics appears when a telemetry hub is
// configured, renders parseable Prometheus text, and its counters and
// per-phase histograms move with traffic.
func TestMetricsEndpoint(t *testing.T) {
	db := shardTestDB()
	hub := telemetry.NewHub(telemetry.HubConfig{TraceCapacity: 8})
	s := New(Config{DefaultWorkers: 2, Telemetry: hub})
	if _, err := s.RegisterDatabase("d", db, RegisterOptions{Shards: 2}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	mine := func(body string) *http.Response {
		t.Helper()
		res, err := ts.Client().Post(ts.URL+"/mine", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if res.StatusCode != 200 {
			t.Fatalf("mine: HTTP %d", res.StatusCode)
		}
		return res
	}
	// First mine through the cache (a miss — the trace shows the lookup).
	res := mine(`{"dataset":"d","algorithm":"UApriori","min_esup":0.05}`)
	traceID := res.Header.Get("X-Umine-Trace-Id")
	res.Body.Close()
	if traceID == "" {
		t.Fatal("mine response missing X-Umine-Trace-Id")
	}

	scrape := func() map[string]string {
		t.Helper()
		res, err := ts.Client().Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		if res.StatusCode != 200 {
			t.Fatalf("/metrics: HTTP %d", res.StatusCode)
		}
		if ct := res.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
			t.Fatalf("/metrics content type %q", ct)
		}
		samples := map[string]string{}
		sc := bufio.NewScanner(res.Body)
		for sc.Scan() {
			line := sc.Text()
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			if !promLine.MatchString(line) {
				t.Fatalf("malformed exposition line: %q", line)
			}
			i := strings.LastIndexByte(line, ' ')
			samples[line[:i]] = line[i+1:]
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		return samples
	}

	m1 := scrape()
	for _, want := range []string{
		"umine_requests_total",
		"umine_sharded_mines_total",
		`umine_cache_requests_total{outcome="miss"}`,
		"umine_in_flight",
		"umine_datasets",
		"umine_mine_duration_seconds_count",
		"umine_shard_phase1_duration_seconds_count",
		"umine_merge_duration_seconds_count",
		"umine_phase2_duration_seconds_count",
		`umine_mine_duration_seconds_bucket{le="+Inf"}`,
	} {
		if _, ok := m1[want]; !ok {
			t.Errorf("/metrics missing %s", want)
		}
	}
	if m1["umine_requests_total"] != "1" || m1["umine_sharded_mines_total"] != "1" {
		t.Errorf("after one mine: requests=%s sharded=%s, want 1/1",
			m1["umine_requests_total"], m1["umine_sharded_mines_total"])
	}
	if m1["umine_shard_phase1_duration_seconds_count"] != "2" {
		t.Errorf("phase-1 histogram count = %s, want 2 (one per shard)",
			m1["umine_shard_phase1_duration_seconds_count"])
	}

	// Histogram counts are monotonic across scrapes under load.
	mine(`{"dataset":"d","algorithm":"UApriori","min_esup":0.05,"no_cache":true}`).Body.Close()
	m2 := scrape()
	if m2["umine_mine_duration_seconds_count"] != "2" || m2["umine_requests_total"] != "2" {
		t.Errorf("after two mines: count=%s requests=%s, want 2/2",
			m2["umine_mine_duration_seconds_count"], m2["umine_requests_total"])
	}

	// The mine's trace is retained and shows the coordinator phases.
	res2, err := ts.Client().Get(ts.URL + "/debug/traces/" + traceID)
	if err != nil {
		t.Fatal(err)
	}
	defer res2.Body.Close()
	if res2.StatusCode != 200 {
		t.Fatalf("/debug/traces/{id}: HTTP %d", res2.StatusCode)
	}
	var td telemetry.TraceData
	if err := json.NewDecoder(res2.Body).Decode(&td); err != nil {
		t.Fatal(err)
	}
	if td.Name != "POST /mine" {
		t.Errorf("trace name %q", td.Name)
	}
	for _, span := range []string{"parse", "cache lookup", "mine", "phase1", "shard 0", "shard 1", "merge", "phase2"} {
		if _, ok := td.Root.Find(span); !ok {
			t.Errorf("trace missing %q span:\n%+v", span, td.Root)
		}
	}
}

// TestMetricsAbsentWithoutHub: without a telemetry hub the observability
// endpoints simply do not exist.
func TestMetricsAbsentWithoutHub(t *testing.T) {
	s := newTestServer(t, testDB(t))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, path := range []string{"/metrics", "/debug/traces"} {
		res, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		if res.StatusCode != 404 {
			t.Errorf("%s without hub: HTTP %d, want 404", path, res.StatusCode)
		}
	}
}
