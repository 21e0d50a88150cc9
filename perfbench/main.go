// Command perfbench is the repository's end-to-end benchmark of the mining
// service. It serves one workload's dataset from an in-process server
// configured like userve's defaults, behind a loopback listener, drives it
// with closed-loop HTTP clients, checks every answer against a direct mine,
// and prints each metric with its unit and sample count. The last line of
// standard output is one JSON object: correct, attempted, failed, metrics.
//
//	bash perfbench/run.sh --workload exact-dense --seed 1 --seconds 16 --trace 0
//
// --trace 0 reports the end-to-end metrics. --trace 1 is the traced run: the
// same workload and seed, once untraced and once with the benchmark's spans,
// followed by direct-call replays of each layer; it reports the per-layer
// metrics, each layer's share of its total, and the tracing overhead.
// README.md lists the workloads, metrics and units.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"umine/internal/benchenv"
	"umine/internal/core"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// stamp identifies a run: the inputs, the code and the machine.
type stamp struct {
	Workload string       `json:"workload"`
	Seed     int64        `json:"seed"`
	Seconds  float64      `json:"seconds"`
	Trace    int          `json:"trace"`
	Commit   string       `json:"commit"`
	Nproc    int          `json:"nproc"`
	Env      benchenv.Env `json:"env"`
}

// setupRuns is how many times a run sets the workload up; setup_s is their
// median.
const setupRuns = 5

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed: request order and ingested batches")
	seconds := fs.Float64("seconds", 16, "minimum length of the timed window; whole passes only")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	commit := fs.String("commit", "unknown", "commit of the measured code, for the stamp")
	traceDir := fs.String("trace_dir", filepath.Join(".bench_build", "traces"), "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	st := stamp{Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *trace, Commit: *commit,
		Nproc: runtime.NumCPU(), Env: benchenv.Capture()}
	sb, _ := json.Marshal(st) // plain strings and numbers always encode
	fmt.Fprintf(stdout, "stamp %s\n", sb)

	var res *result
	var err error
	if *trace == 0 {
		res, err = timedRun(w, st)
	} else {
		res, err = tracedRun(w, st, filepath.Join(*traceDir, fmt.Sprintf("%s-seed%d.json", w.name, *seed)))
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, line := range res.notes {
		fmt.Fprintln(stdout, line)
	}
	out := map[string]any{}
	for _, m := range res.metrics {
		fmt.Fprintf(stdout, "metric %-32s %14.6f %-6s n=%d\n", m.name, m.value, m.unit, m.n)
		out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	for _, e := range res.errors {
		fmt.Fprintln(stdout, "FAILED", e)
	}
	last, _ := json.Marshal(map[string]any{
		"correct": res.failed == 0, "attempted": res.attempted, "failed": res.failed, "metrics": out,
	})
	fmt.Fprintf(stdout, "%s\n", last)
	if res.failed > 0 {
		return 1
	}
	return 0
}

// result is what a run prints.
type result struct {
	metrics   []metric
	notes     []string
	errors    []string
	attempted int
	failed    int
}

// setups sets the workload up setupRuns times, keeps the last environment
// and returns the set-up and generation times of all of them.
func setups(w *workload, workers int, rec *recorder) (*env, []float64, []float64, error) {
	var setupS, genMS []float64
	var e *env
	for i := 0; i < setupRuns; i++ {
		if e != nil {
			e.close()
		}
		var err error
		if e, err = setupEnv(w, workers, rec); err != nil {
			return nil, nil, nil, err
		}
		setupS = append(setupS, e.setup.Seconds())
		genMS = append(genMS, ms(e.generate))
	}
	return e, setupS, genMS, nil
}

func clientsFor(w *workload, nproc int) int {
	if w.clients > 0 {
		return w.clients
	}
	return nproc
}

// timedRun is the untraced run behind the end-to-end metrics.
func timedRun(w *workload, st stamp) (*result, error) {
	e, setupS, _, err := setups(w, st.Nproc, nil)
	if err != nil {
		return nil, err
	}
	var pool [][]core.Unit
	if w.ingestEvery > 0 {
		pool = w.ingestPool(st.Seed)
	}
	win := runWindow(e, w.passes(st.Seed), clientsFor(w, st.Nproc), st.Nproc, st.Seconds, minMines, pool, nil)
	e.close()
	res := &result{}
	orc := newOracle(e.base, w.profile, st.Nproc, func(i int) [][]core.Unit { return w.batch(pool, i) })
	if err := res.check(orc, win, e.version); err != nil {
		return nil, err
	}
	res.metrics = append(endToEnd(win), metric{"setup_s", median(setupS), "s", len(setupS)})
	res.notes = append(res.notes, windowNotes(win)...)
	return res, nil
}

// check runs the oracle over a window and tallies the outcome.
func (r *result) check(o *oracle, win *window, baseVersion uint64) error {
	failed, err := o.check(win.samples, baseVersion)
	if err != nil {
		return err
	}
	r.attempted += len(win.samples)
	r.failed += failed
	for _, s := range win.samples {
		if s.err != "" && len(r.errors) < 10 {
			r.errors = append(r.errors, s.err)
		}
	}
	return nil
}

// latencies splits a window's successful samples by kind, in milliseconds.
func latencies(win *window) (mines, ingests []float64) {
	for _, s := range win.samples {
		if s.err != "" {
			continue
		}
		if s.kind == opMine {
			mines = append(mines, ms(s.latency))
		} else {
			ingests = append(ingests, ms(s.latency))
		}
	}
	return mines, ingests
}

// endToEnd computes the end-to-end metrics of a window.
func endToEnd(win *window) []metric {
	mines, _ := latencies(win)
	p50, _ := percentile(mines, 50)
	p90, _ := percentile(mines, 90)
	return []metric{
		{"mine_p50_ms", p50, "ms", len(mines)},
		{"mine_p90_ms", p90, "ms", len(mines)},
		{"mines_per_s", float64(len(mines)) / win.elapsed.Seconds(), "1/s", len(mines)},
		{"peak_rss_mb", median(win.passRSS), "MB", len(win.passRSS)},
	}
}

// windowNotes are the human-readable lines of a window that are not
// benchmark metrics: ingest latency, failures, the cache mix, passes.
func windowNotes(win *window) []string {
	mines, ingests := latencies(win)
	failed := 0
	for _, s := range win.samples {
		if s.err != "" {
			failed++
		}
	}
	_, beyond := percentile(mines, 90)
	notes := []string{
		fmt.Sprintf("window %.3f s, %d passes, %d mines (%d beyond p90), %d ingests", win.elapsed.Seconds(), win.passes, len(mines), beyond, len(ingests)),
		fmt.Sprintf("metric %-32s %14.6f %-6s n=%d", "failed_frac", float64(failed)/float64(max(len(win.samples), 1)), "ratio", len(win.samples)),
	}
	if len(ingests) > 0 {
		p50, _ := percentile(ingests, 50)
		p90, _ := percentile(ingests, 90)
		notes = append(notes,
			fmt.Sprintf("metric %-32s %14.6f %-6s n=%d", "ingest_p50_ms", p50, "ms", len(ingests)),
			fmt.Sprintf("metric %-32s %14.6f %-6s n=%d", "ingest_p90_ms", p90, "ms", len(ingests)))
	}
	if h, f, c, m, n := cacheFracs(win.stats0, win.stats1); n > 0 {
		notes = append(notes, fmt.Sprintf("cache mix over %d mines: hit %.3f filtered %.3f coalesced %.3f miss %.3f", n, h, f, c, m))
	}
	return notes
}

// tracedRun is the traced run: one window on one set-up that alternates
// untraced and traced passes of the workload, then the layer replays. The
// two halves give the tracing overhead; the traced half gives the spans.
func tracedRun(w *workload, st stamp, tracePath string) (*result, error) {
	rec := newRecorder()
	e, _, genMS, err := setups(w, st.Nproc, rec)
	if err != nil {
		return nil, err
	}
	// The replays ingest a few batches on every workload.
	pool := w.ingestPool(st.Seed)
	win := runWindow(e, w.passes(st.Seed), clientsFor(w, st.Nproc), st.Nproc, st.Seconds, 0, pool, rec)
	e.close()

	res := &result{}
	orc := newOracle(e.base, w.profile, st.Nproc, func(i int) [][]core.Unit { return w.batch(pool, i) })
	if err := res.check(orc, win, e.version); err != nil {
		return nil, err
	}
	plain, traced := win.part(false), win.part(true)

	lr, err := replayLayers(w, e.base, pool, st.Nproc, rec)
	if err != nil {
		return nil, err
	}
	res.metrics = layerMetrics(w, lr, win, rec.spans, genMS)
	res.metrics = append(res.metrics, overheadMetrics(plain, traced)...)
	res.notes = append(res.notes, "whole window:")
	res.notes = append(res.notes, windowNotes(win)...)
	res.notes = append(res.notes, "untraced passes:")
	res.notes = append(res.notes, windowNotes(plain)...)
	res.notes = append(res.notes, "traced passes:")
	res.notes = append(res.notes, windowNotes(traced)...)
	res.notes = append(res.notes, shareNotes(rec.spans)...)
	res.notes = append(res.notes, algoNotes(lr)...)
	if err := writeTrace(tracePath, st, rec.spans); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	res.notes = append(res.notes, fmt.Sprintf("spans: %d written to %s", len(rec.spans), tracePath))
	return res, nil
}

// overheadMetrics compare the traced window with the untraced one: the
// tracing overhead, as a fraction of the untraced value.
func overheadMetrics(plain, traced *window) []metric {
	a, b := endToEnd(plain), endToEnd(traced)
	var out []metric
	for i, name := range []string{"trace.overhead_mine_p50_frac", "trace.overhead_mine_p90_frac", "trace.overhead_mines_per_s_frac"} {
		out = append(out, metric{name, b[i].value/a[i].value - 1, "ratio", b[i].n})
	}
	return out
}

// mineSpans returns the client.mine spans of a traced window and their
// server.handler children, by client span id.
func mineSpans(spans []span) (clients map[int64]span, handlers map[int64]span) {
	clients, handlers = map[int64]span{}, map[int64]span{}
	for _, s := range spans {
		if s.Name == "client.mine" {
			clients[s.ID] = s
		}
	}
	for _, s := range spans {
		if s.Name == "server.handler" {
			if _, ok := clients[s.Parent]; ok {
				handlers[s.Parent] = s
			}
		}
	}
	return clients, handlers
}

// layerMetrics computes the per-layer metrics.
func layerMetrics(w *workload, lr *layerRun, win *window, spans []span, genMS []float64) []metric {
	var out []metric
	add := func(name string, v float64, unit string, n int) { out = append(out, metric{name, v, unit, n}) }
	med := func(name string, xs []float64) { add(name, median(xs), "ms", len(xs)) }

	clients, handlers := mineSpans(spans)
	var hMS, tMS []float64
	var clientTotal, handlerTotal time.Duration
	for id, c := range clients {
		h, ok := handlers[id]
		if !ok {
			continue
		}
		hMS = append(hMS, ms(h.dur()))
		tMS = append(tMS, ms(c.dur()-h.dur()))
		clientTotal += c.dur()
		handlerTotal += h.dur()
	}
	med("server.handler_ms", hMS)
	med("server.transport_ms", tMS)
	add("server.handler_share", ratio(handlerTotal.Seconds(), clientTotal.Seconds()), "ratio", len(hMS))
	for _, k := range []string{"hit", "filtered", "coalesced", "miss"} {
		med("server.mine_ms."+k, lr.byKind[k])
	}
	h, f, c, m, n := cacheFracs(win.stats0, win.stats1)
	add("server.hit_frac", h, "ratio", n)
	add("server.filtered_frac", f, "ratio", n)
	add("server.coalesced_frac", c, "ratio", n)
	add("server.miss_frac", m, "ratio", n)
	med("server.encode_ms", lr.encode)
	med("server.overhead_miss_ms", lr.overhead)
	med("server.ingest_ms", lr.ingest)
	med("core.vertical_build_ms", lr.vertical)
	add("core.resident_mb", float64(win.stats1.BytesResident)/(1<<20), "MB", 1)

	med("partition.mine_ms", lr.part)
	med("partition.phase1_ms", lr.partP1)
	med("partition.phase2_ms", lr.partP2)
	// Per sharded mine of the load window when it ran any (serve-mixed),
	// else from the engine replays.
	if d := win.stats1.ShardedMines - win.stats0.ShardedMines; d > 0 {
		k := float64(d)
		add("partition.phase2_candidates", float64(win.stats1.Phase2Candidates-win.stats0.Phase2Candidates)/k, "count", int(d))
		add("partition.merge_ms", (win.stats1.PartitionMergeMS-win.stats0.PartitionMergeMS)/k, "ms", int(d))
		add("partition.slowest_shard_ms", (win.stats1.ShardSlowestMS-win.stats0.ShardSlowestMS)/k, "ms", int(d))
	} else {
		add("partition.phase2_candidates", median(lr.partCands), "count", len(lr.partCands))
		med("partition.merge_ms", lr.partMerge)
		med("partition.slowest_shard_ms", lr.partSlowest)
	}

	med("algo.mine_ms", lr.algoMS)
	med("kernel.tail_dp_ms", lr.tailDP)
	add("kernel.tail_dp_share", ratio(sum(lr.tailDP), sum(lr.tailSerial)), "ratio", len(lr.tailDP))
	med("apriori.other_ms", lr.other)
	med("exact.dc_over_dp_ms", lr.dcOverDP)
	add("exact.evals", float64(lr.evals), "count", lr.evals)
	add("exact.chernoff_pruned_frac", ratio(float64(lr.chernoff), float64(lr.chernoff+lr.evals)), "ratio", lr.chernoff+lr.evals)
	add("exact.eval_yield", ratio(float64(lr.evalResults), float64(lr.evals)), "ratio", lr.evals)
	med("kernel.intersect_ms", lr.intersect)
	add("kernel.intersects", float64(lr.kernelN), "count", int(lr.kernelN))
	add("kernel.scalar_intersects", float64(lr.scalarN), "count", int(lr.scalarN))
	add("apriori.candidates", float64(lr.candidates), "count", lr.candidates)
	add("apriori.vertical_plan_frac", ratio(float64(lr.vPlans), float64(lr.vPlans+lr.hPlans)), "ratio", lr.vPlans+lr.hPlans)
	add("apriori.postings_probed", float64(lr.probed), "count", lr.probed)
	add("parallel.speedup", ratio(lr.serialSum, lr.parallelSum), "ratio", len(w.replay))
	add("parallel.tasks_spawned", float64(lr.spawned), "count", int(lr.spawned))
	add("parallel.steal_frac", ratio(float64(lr.stolen), float64(lr.spawned)), "ratio", int(lr.spawned))
	peak := 0.0
	for _, p := range lr.ufpPeak {
		peak = max(peak, p)
	}
	add("ufpgrowth.peak_tracked_mb", peak, "MB", len(lr.ufpPeak))
	add("telemetry.handler_delta_ms", median(lr.telOn)-median(lr.telOff), "ms", len(lr.telOn))
	med("dataset.generate_ms", genMS)
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// shareNotes prints each layer's self time and its share of its root's
// total, per root span name.
func shareNotes(spans []span) []string {
	byID := map[int64]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	rootOf := func(s span) string {
		if r, ok := byID[s.Req]; ok {
			return r.Name
		}
		return s.Name
	}
	totals := map[string]time.Duration{}
	for _, s := range spans {
		if s.Parent == 0 {
			totals[s.Name] += s.dur()
		}
	}
	self := map[[2]string]time.Duration{}
	groups := map[string][]span{}
	for _, s := range spans {
		groups[rootOf(s)] = append(groups[rootOf(s)], s)
	}
	for root, g := range groups {
		for name, d := range selfTimes(g) {
			self[[2]string{root, name}] += d
		}
	}
	keys := make([][2]string, 0, len(self))
	for k := range self {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return self[keys[i]] > self[keys[j]]
	})
	out := []string{"layer self time and share of its root's total:"}
	for _, k := range keys {
		out = append(out, fmt.Sprintf("share %-14s %-20s %12.3f ms %7.4f", k[0], k[1], ms(self[k]), ratio(self[k].Seconds(), totals[k[0]].Seconds())))
	}
	return out
}

// algoNotes prints the replayed mine time of each algorithm.
func algoNotes(lr *layerRun) []string {
	names := make([]string, 0, len(lr.algoBy))
	for a := range lr.algoBy {
		names = append(names, a)
	}
	sort.Strings(names)
	var out []string
	for _, a := range names {
		out = append(out, fmt.Sprintf("algo.mine_ms.%-12s %12.3f ms n=%d", a, median(lr.algoBy[a]), len(lr.algoBy[a])))
	}
	return out
}
