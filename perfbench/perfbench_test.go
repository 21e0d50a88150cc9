package main

import (
	"math"
	"reflect"
	"testing"
	"time"

	"umine/internal/core"
	"umine/internal/server"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted input
	}
	for _, c := range []struct {
		p          float64
		want       float64
		wantBeyond int
	}{
		{50, 50, 50},
		{90, 90, 10},
		{100, 100, 0},
	} {
		v, beyond := percentile(xs, c.p)
		if v != c.want || beyond != c.wantBeyond {
			t.Errorf("p%v = %v (%d beyond), want %v (%d beyond)", c.p, v, beyond, c.want, c.wantBeyond)
		}
	}
	if v, beyond := percentile(nil, 90); v != 0 || beyond != 0 {
		t.Errorf("empty: %v, %d", v, beyond)
	}
}

// minMines is the sample-count rule: it is the smallest count that leaves
// ten samples beyond the nearest-rank p90.
func TestMinMinesLeavesTenBeyondP90(t *testing.T) {
	beyond := func(n int) int {
		_, b := percentile(make([]float64, n), 90)
		return b
	}
	if b := beyond(minMines); b < 10 {
		t.Errorf("%d samples leave %d beyond p90, want ≥ 10", minMines, b)
	}
	if b := beyond(minMines - 1); b >= 10 {
		t.Errorf("%d samples already leave %d beyond p90: minMines is not the smallest", minMines-1, b)
	}
}

func TestPassIsSeeded(t *testing.T) {
	for _, name := range workloadNames() {
		w := workloads[name]
		a, b, c := w.passes(7), w.passes(7), w.passes(8)
		a1, b1, c1 := a(), b(), c()
		if !reflect.DeepEqual(a1, b1) || !reflect.DeepEqual(a(), b()) {
			t.Errorf("%s: seed 7 gave two different sequences", name)
		}
		if reflect.DeepEqual(a1, c1) {
			t.Errorf("%s: seeds 7 and 8 gave the same sequence", name)
		}
	}
	w := workloads["serve-mixed"]
	p7, p8 := w.ingestPool(7), w.ingestPool(8)
	if !reflect.DeepEqual(w.batch(p7, 3), w.batch(w.ingestPool(7), 3)) {
		t.Error("seed 7 gave two different ingest batches")
	}
	if reflect.DeepEqual(w.batch(p7, 3), w.batch(p8, 3)) {
		t.Error("seeds 7 and 8 gave the same ingest batch")
	}
}

func TestWorkloadsAreWellFormed(t *testing.T) {
	for _, name := range workloadNames() {
		w := workloads[name]
		seen := map[string]bool{}
		for _, q := range w.queries {
			if seen[q.String()] {
				t.Errorf("%s: duplicate query %s", name, q)
			}
			seen[q.String()] = true
		}
		if len(w.replay) == 0 {
			t.Errorf("%s: no replay queries", name)
		}
		for _, i := range w.replay {
			if i < 0 || i >= len(w.queries) {
				t.Errorf("%s: replay index %d out of range", name, i)
			}
		}
	}
	if n := len(workloads["serve-mixed"].queries); n <= 256 {
		t.Errorf("serve-mixed universe has %d queries, want more than the 256-entry cache", n)
	}
}

func TestZipfCounts(t *testing.T) {
	counts := zipfCounts(288, 384)
	total := 0
	for r, c := range counts {
		total += c
		if r > 0 && c > counts[r-1] {
			t.Errorf("rank %d asked %d times, more than rank %d (%d)", r, c, r-1, counts[r-1])
		}
	}
	if total != 384 {
		t.Errorf("counts sum to %d, want 384", total)
	}
}

func TestCacheFracsSumToOne(t *testing.T) {
	a := server.Stats{CacheHits: 3, CacheFiltered: 1, CacheMisses: 2, Coalesced: 0, Uncached: 5}
	b := server.Stats{CacheHits: 40, CacheFiltered: 6, CacheMisses: 20, Coalesced: 4, Uncached: 9}
	h, f, c, m, n := cacheFracs(a, b)
	if n != 37+5+18+4+4 {
		t.Errorf("n = %d", n)
	}
	if s := h + f + c + m; math.Abs(s-1) > 1e-12 {
		t.Errorf("fractions sum to %v", s)
	}
	if _, _, _, _, n := cacheFracs(a, a); n != 0 {
		t.Errorf("no mines: n = %d", n)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []span{
		{ID: 1, Req: 1, Name: "root", Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Req: 1, Name: "a", Start: 1 * ms, End: 4 * ms},
		{ID: 3, Parent: 1, Req: 1, Name: "a", Start: 3 * ms, End: 6 * ms}, // overlaps 2
		{ID: 4, Parent: 3, Req: 1, Name: "b", Start: 4 * ms, End: 5 * ms},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"root": 5 * time.Millisecond, "a": 5 * time.Millisecond, "b": time.Millisecond}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

// tinyWorkload is a fast serve-mixed-shaped workload for the load and
// oracle tests: two clients, caching on, ingests between mines.
func tinyWorkload() *workload {
	return &workload{
		name: "tiny", profile: "accident", scale: 0.0005, shards: 2,
		queries: []query{
			{"UApriori", core.Thresholds{MinESup: 0.3}},
			{"UApriori", core.Thresholds{MinESup: 0.4}},
			{"DPB", core.Thresholds{MinSup: 0.3, PFT: 0.8}},
		},
		ingestEvery: 2, batchSize: 2,
	}
}

func TestWindowAndOracle(t *testing.T) {
	w := tinyWorkload()
	e, err := setupEnv(w, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	pool := w.ingestPool(1)
	win := runWindow(e, w.passes(1), 2, 2, 0, minMines, pool, nil)
	e.close()
	mines, ingests := latencies(win)
	if len(mines) < minMines {
		t.Fatalf("window holds %d mines, want ≥ %d", len(mines), minMines)
	}
	if len(ingests) == 0 {
		t.Fatal("window sent no ingests")
	}
	if _, _, _, _, n := cacheFracs(win.stats0, win.stats1); n != len(mines) {
		t.Errorf("stats count %d mines, the clients sent %d", n, len(mines))
	}

	batches := func(i int) [][]core.Unit { return w.batch(pool, i) }
	o := newOracle(e.base, w.profile, 2, batches)
	failed, err := o.check(win.samples, e.version)
	if err != nil {
		t.Fatal(err)
	}
	if failed != 0 {
		for _, s := range win.samples {
			if s.err != "" {
				t.Error(s.err)
			}
		}
		t.Fatalf("%d failures on a correct server", failed)
	}

	// A corrupted body — here, one reply's hash swapped for another
	// query's — must fail, and so must a reply at a version whose ingest
	// record is missing.
	var mineIdx []int
	for i, s := range win.samples {
		if s.kind == opMine {
			mineIdx = append(mineIdx, i)
		}
	}
	bad := append([]sample(nil), win.samples...)
	for _, j := range mineIdx {
		if bad[j].q != bad[mineIdx[0]].q {
			bad[mineIdx[0]].hash = bad[j].hash
			break
		}
	}
	bad[mineIdx[1]].hash[0] ^= 1
	if failed, err := newOracle(e.base, w.profile, 2, batches).check(bad, e.version); err != nil || failed != 2 {
		t.Errorf("corrupted bodies: %d failures (err %v), want 2", failed, err)
	}
	var noIngest []sample
	for _, s := range win.samples {
		if s.kind == opMine && s.version > e.version {
			noIngest = append(noIngest, s)
		}
	}
	if failed, _ := newOracle(e.base, w.profile, 2, batches).check(noIngest, e.version); failed != len(noIngest) || failed == 0 {
		t.Errorf("replies without ingest records: %d failures of %d", failed, len(noIngest))
	}
}

// The replays' self-checks hold on a correct program: the replayed
// FreqTailDP calls match ExactEvaluations and the replayed intersections
// match the miner's kernel counters (replayLayers fails otherwise).
func TestReplaySelfChecks(t *testing.T) {
	w := tinyWorkload()
	w.replay = []int{0, 2}
	e, err := setupEnv(w, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	e.close()
	rec := newRecorder()
	lr, err := replayLayers(w, e.base, w.ingestPool(1), 2, rec)
	if err != nil {
		t.Fatal(err)
	}
	if len(lr.tailDP) != 1 || lr.evals == 0 {
		t.Errorf("DPB replay: %d DP queries, %d evaluations", len(lr.tailDP), lr.evals)
	}
	if len(lr.byKind["miss"]) == 0 || len(lr.byKind["hit"]) == 0 || len(lr.byKind["filtered"]) == 0 {
		t.Errorf("server replay kinds: %v", lr.byKind)
	}
	if len(rec.spans) == 0 {
		t.Error("replays recorded no spans")
	}
}
