package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"time"

	"umine/internal/algo"
	"umine/internal/core"
	"umine/internal/kernel"
	"umine/internal/parallel"
	"umine/internal/partition"
	"umine/internal/prob"
	"umine/internal/server"
)

// The traced run's layer replays. After the traced load window, each of the
// workload's replay queries is run again by direct calls into each layer's
// public functions, every call under a benchmark span:
//
//   - server: Server.Mine on a fresh server with the workload's dataset
//     configuration — a miss, then a hit, then a stricter query the cache
//     filters, then Server.Ingest of one batch, then nproc concurrent
//     identical mines (one mines, the rest coalesce) — and
//     ResultSet.WriteJSON of the reply;
//   - algo: the miner itself at Workers 1 and nproc;
//   - partition: the SON engine with 4 partitions;
//   - kernel: the verification DP and the postings intersections the miner
//     ran, replayed from the candidates it saw (see spyMine);
//   - telemetry: the /mine handler with and without a telemetry hub.

// replayPartitions is the partition count of the partition-engine replay,
// the serve-mixed dataset's shard count.
const replayPartitions = 4

// aprioriFramework lists the algorithms whose candidates spyMine can
// reconstruct: those counted by the apriori framework without a pruning
// rule the benchmark cannot observe.
var aprioriFramework = map[string]bool{"UApriori": true, "DPNB": true, "DPB": true, "DCNB": true, "DCB": true}

// dpAlgos verify with kernel.FreqTailDP; DPB applies the Chernoff bound
// first.
var dpAlgos = map[string]bool{"DPNB": true, "DPB": true}

// layerRun accumulates the replays' measurements.
type layerRun struct {
	byKind      map[string][]float64 // Server.Mine by cache outcome
	encode      []float64
	overhead    []float64
	ingest      []float64
	vertical    []float64
	algoMS      []float64
	algoBy      map[string][]float64
	serialSum   float64
	parallelSum float64
	part        []float64
	partP1      []float64
	partP2      []float64
	partMerge   []float64
	partCands   []float64
	partSlowest []float64
	tailDP      []float64 // per DP query: total replayed FreqTailDP time
	tailSerial  []float64 // the same queries' serial mine
	other       []float64
	dcOverDP    []float64
	evals       int
	chernoff    int
	evalResults int
	intersect   []float64
	kernelN     int64
	scalarN     int64
	candidates  int
	vPlans      int
	hPlans      int
	probed      int
	spawned     int64
	stolen      int64
	ufpPeak     []float64
	telOn       []float64
	telOff      []float64
}

// replayLayers runs the layer replays of w's replay queries.
func replayLayers(w *workload, base *core.Database, pool [][]core.Unit, nproc int, rec *recorder) (*layerRun, error) {
	ctx := context.Background()
	lr := &layerRun{byKind: map[string][]float64{}, algoBy: map[string][]float64{}}
	srv := newServer(true)
	off := newServer(false)
	for _, s := range []*server.Server{srv, off} {
		if _, err := s.RegisterDatabase(w.profile, base, server.RegisterOptions{Shards: w.shards}); err != nil {
			return nil, err
		}
	}
	// Requests carry the load's workers setting: nproc on the no_cache
	// workloads, the server default (serial) on serve-mixed.
	reqWorkers := 0
	if w.noCache {
		reqWorkers = nproc
	}
	cur := base
	bw := *w
	bw.batchSize = max(w.batchSize, 2)
	// Mine times per (algorithm, thresholds) at the workload's workers, for
	// the DCNB−DPNB comparison.
	same := map[string]float64{}
	for qi, idx := range w.replay {
		q := w.queries[idx]
		root := rec.newID()
		rootStart := time.Now()
		child := func(name string, fn func()) float64 { return ms(rec.time(name, root, root, fn)) }
		mine := func(q query) (*server.MineResponse, float64, error) {
			var resp *server.MineResponse
			var err error
			d := child("server.Mine", func() {
				resp, err = srv.Mine(ctx, server.MineRequest{Dataset: w.profile, Algorithm: q.Algo, Thresholds: q.Th, Workers: reqWorkers})
			})
			if err != nil {
				return nil, 0, fmt.Errorf("replay %s: %w", q, err)
			}
			lr.byKind[kindOf(resp.Cache)] = append(lr.byKind[kindOf(resp.Cache)], d)
			return resp, d, nil
		}

		// Server: miss, encode, direct mine on the same snapshot, hit,
		// filtered.
		resp, missMS, err := mine(q)
		if err != nil {
			return nil, err
		}
		var encErr error
		lr.encode = append(lr.encode, child("server.encode", func() { encErr = resp.Results.WriteJSON(io.Discard) }))
		if encErr != nil {
			return nil, encErr
		}
		mineAt := func(name string, workers int) (*core.ResultSet, core.ExecStats, float64, error) {
			var ex core.ExecStats
			m, err := algo.NewWith(q.Algo, core.Options{Workers: workers, Progress: func(ev core.ProgressEvent) {
				if ev.Phase == core.PhaseExec {
					ex.Add(ev.Exec)
				}
			}})
			if err != nil {
				return nil, ex, 0, err
			}
			var rs *core.ResultSet
			d := child(name, func() { rs, err = m.Mine(ctx, cur, q.Th) })
			return rs, ex, d, err
		}
		rsW, _, algoMS, err := mineAt("algo.mine", max(reqWorkers, 1))
		if err != nil {
			return nil, err
		}
		lr.algoMS = append(lr.algoMS, algoMS)
		lr.algoBy[q.Algo] = append(lr.algoBy[q.Algo], algoMS)
		if kindOf(resp.Cache) == server.CacheMiss {
			lr.overhead = append(lr.overhead, missMS-algoMS)
		}
		same[q.String()] = algoMS
		if q.Algo == "UFP-growth" {
			lr.ufpPeak = append(lr.ufpPeak, float64(rsW.Stats.PeakTrackedBytes)/(1<<20))
		}
		if _, _, err := mine(q); err != nil {
			return nil, err
		}
		if _, _, err := mine(q.stricter()); err != nil {
			return nil, err
		}

		// Ingest one batch, then rebuild the new snapshot's vertical index
		// the way the next mine of it would.
		batch := bw.batch(pool, qi)
		var ierr error
		lr.ingest = append(lr.ingest, child("server.Ingest", func() { _, ierr = srv.Ingest(ctx, w.profile, batch) }))
		if ierr != nil {
			return nil, ierr
		}
		b := core.NewBuilder(w.profile)
		b.AddDatabase(cur)
		for _, units := range batch {
			if err := b.Add(units); err != nil {
				return nil, err
			}
		}
		cur = b.Build()
		lr.vertical = append(lr.vertical, child("core.Vertical", func() { cur.Vertical() }))

		// Coalescing: nproc identical mines of the fresh version at once.
		var wg sync.WaitGroup
		errs := make([]error, nproc)
		gate := make(chan struct{})
		var mu sync.Mutex
		for c := 0; c < nproc; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				<-gate
				var resp *server.MineResponse
				d := child("server.Mine", func() {
					resp, errs[c] = srv.Mine(ctx, server.MineRequest{Dataset: w.profile, Algorithm: q.Algo, Thresholds: q.Th, Workers: reqWorkers})
				})
				if errs[c] == nil {
					mu.Lock()
					lr.byKind[kindOf(resp.Cache)] = append(lr.byKind[kindOf(resp.Cache)], d)
					mu.Unlock()
				}
			}(c)
		}
		close(gate)
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}

		// Parallel layer: the same mine serial and at nproc workers.
		rs1, _, serialMS, err := mineAt("algo.mine_w1", 1)
		if err != nil {
			return nil, err
		}
		_, exN, parMS, err := mineAt("algo.mine_wn", nproc)
		if err != nil {
			return nil, err
		}
		lr.serialSum += serialMS
		lr.parallelSum += parMS
		lr.spawned += exN.TasksSpawned
		lr.stolen += exN.TasksStolen

		// Partition engine.
		if algo.SupportsPartitions(q.Algo) {
			if err := replayPartition(lr, q, cur, max(reqWorkers, 1), child); err != nil {
				return nil, err
			}
		}

		// Exact family counters, from the serial mine.
		if slices.Contains(exactAlgos, q.Algo) {
			lr.evals += rs1.Stats.ExactEvaluations
			lr.chernoff += rs1.Stats.ChernoffPruned
			lr.evalResults += rs1.Len()
		}

		// Kernels, from the candidates the miner saw.
		if aprioriFramework[q.Algo] {
			if err := replayKernels(lr, q, cur, serialMS, child); err != nil {
				return nil, err
			}
		}

		// Telemetry: the same cached query through the handler of a server
		// with the hub and of one without.
		child("telemetry.replay", func() { err = replayTelemetry(lr, w, q, srv, off, reqWorkers) })
		if err != nil {
			return nil, err
		}
		rec.add(span{ID: root, Req: root, Name: "replay", Start: rec.ns(rootStart), End: rec.ns(time.Now())})
	}
	for _, q := range w.replay {
		if qq := w.queries[q]; qq.Algo == "DPNB" {
			dc := qq
			dc.Algo = "DCNB"
			if v, ok := same[dc.String()]; ok {
				lr.dcOverDP = append(lr.dcOverDP, v-same[qq.String()])
			}
		}
	}
	return lr, nil
}

// kindOf folds a cache outcome into the four reported kinds: a bypassed
// (no_cache) request mined, like a miss.
func kindOf(cache string) string {
	if cache == server.CacheBypassed {
		return server.CacheMiss
	}
	return cache
}

// replayPartition runs the SON engine on q; phase 1 ends at the engine's
// last PhasePartition event.
func replayPartition(lr *layerRun, q query, db *core.Database, workers int, child func(string, func()) float64) error {
	var mu sync.Mutex
	var lastPart time.Time
	eng, err := algo.NewPartitionEngine(q.Algo, core.Options{Partitions: replayPartitions, Workers: workers,
		Progress: func(ev core.ProgressEvent) {
			if ev.Phase == core.PhasePartition {
				mu.Lock()
				lastPart = time.Now()
				mu.Unlock()
			}
		}})
	if err != nil {
		return err
	}
	var st partition.RunStats
	eng.Observe = func(r partition.RunStats) { st = r }
	var start, end time.Time
	d := child("partition.mine", func() {
		start = time.Now()
		_, err = eng.Mine(context.Background(), db, q.Th)
		end = time.Now()
	})
	if err != nil {
		return fmt.Errorf("partition replay %s: %w", q, err)
	}
	lr.part = append(lr.part, d)
	if !lastPart.IsZero() {
		lr.partP1 = append(lr.partP1, ms(lastPart.Sub(start)))
		lr.partP2 = append(lr.partP2, ms(end.Sub(lastPart)))
	}
	lr.partMerge = append(lr.partMerge, ms(st.MergeElapsed))
	lr.partCands = append(lr.partCands, float64(st.Candidates))
	lr.partSlowest = append(lr.partSlowest, ms(st.SlowestShard))
	return nil
}

// spyMine runs q serially with an allow-all restriction that records every
// candidate the miner generated, and a progress hook that records which
// levels the vertical plan counted.
func spyMine(q query, db *core.Database) (rs *core.ResultSet, byLevel map[int][]core.Itemset, vertical map[int]bool, ex core.ExecStats, err error) {
	byLevel = map[int][]core.Itemset{}
	vertical = map[int]bool{}
	prevVP := 0
	m, err := algo.NewWith(q.Algo, core.Options{Workers: 1, Progress: func(ev core.ProgressEvent) {
		switch ev.Phase {
		case core.PhaseLevel:
			vertical[ev.Level] = ev.Stats.VerticalPlans > prevVP
			prevVP = ev.Stats.VerticalPlans
		case core.PhaseExec:
			ex.Add(ev.Exec)
		}
	}})
	if err != nil {
		return
	}
	rm, ok := m.(core.RestrictableMiner)
	if !ok {
		err = fmt.Errorf("%s has no candidate restriction hook", q.Algo)
		return
	}
	rm.SetRestrict(func(x core.Itemset) bool {
		byLevel[len(x)] = append(byLevel[len(x)], x.Clone())
		return true
	})
	rs, err = m.Mine(context.Background(), db, q.Th)
	return
}

// counted filters the generated candidates down to those the apriori
// framework counted: level 1 counts every item; a longer candidate is
// counted when all its subsets one shorter are frequent (in the result).
func counted(rs *core.ResultSet, byLevel map[int][]core.Itemset) map[int][]core.Itemset {
	frequent := map[string]bool{}
	for _, r := range rs.Results {
		frequent[r.Itemset.Key()] = true
	}
	out := map[int][]core.Itemset{1: byLevel[1]}
	for k, cands := range byLevel {
		if k < 2 {
			continue
		}
		for _, c := range cands {
			ok := true
			sub := make(core.Itemset, 0, k-1)
			for drop := range c {
				sub = append(append(sub[:0], c[:drop]...), c[drop+1:]...)
				if !frequent[sub.Key()] {
					ok = false
					break
				}
			}
			if ok {
				out[k] = append(out[k], c)
			}
		}
	}
	return out
}

// replayKernels replays the miner's kernel work from its candidates: one
// kernel.FreqTailDP per verified candidate (DP methods) and one postings
// intersection per candidate of each vertically counted level. Both counts
// must equal the miner's own, or the run fails: the layer times must
// describe the work the miner did.
func replayKernels(lr *layerRun, q query, db *core.Database, serialMS float64, child func(string, func()) float64) error {
	var rs *core.ResultSet
	var byLevel map[int][]core.Itemset
	var vertical map[int]bool
	var ex core.ExecStats
	var err error
	child("algo.mine_spy", func() { rs, byLevel, vertical, ex, err = spyMine(q, db) })
	if err != nil {
		return err
	}
	cands := counted(rs, byLevel)
	st := rs.Stats
	lr.candidates += st.CandidatesGenerated
	lr.vPlans += st.VerticalPlans
	lr.hPlans += st.HorizontalPlans
	lr.probed += st.PostingsProbed
	lr.kernelN += ex.KernelIntersects
	lr.scalarN += ex.ScalarIntersects

	if dpAlgos[q.Algo] {
		msc := q.Th.MinSupCount(db.N())
		var vecs [][]float64
		for _, level := range cands {
			for _, c := range level {
				ps := nonZero(db.TxProbs(c))
				if q.Algo == "DPB" && prob.ChernoffInfrequent(sum(ps), msc, q.Th.PFT) {
					continue
				}
				vecs = append(vecs, ps)
			}
		}
		if len(vecs) != st.ExactEvaluations {
			return fmt.Errorf("%s: replayed %d FreqTailDP calls, the miner made %d exact evaluations", q, len(vecs), st.ExactEvaluations)
		}
		var sink float64
		d := child("kernel.FreqTailDP", func() {
			for _, ps := range vecs {
				sink += kernel.FreqTailDP(ps, msc)
			}
		})
		_ = sink
		lr.tailDP = append(lr.tailDP, d)
		lr.tailSerial = append(lr.tailSerial, serialMS)
		lr.other = append(lr.other, serialMS-d)
	}

	v := db.Vertical()
	size := parallel.ChunkSizeForSpan(db.N(), db.NumUnits())
	collect := q.Algo != "UApriori"
	var lists [][]kernel.List
	for k, level := range cands {
		if !vertical[k] {
			continue
		}
		for _, c := range level {
			ls := make([]kernel.List, len(c))
			for i, it := range c {
				ls[i].TIDs, ls[i].Probs = v.Postings(it)
			}
			lists = append(lists, ls)
		}
	}
	if want := ex.KernelIntersects + ex.ScalarIntersects; int64(len(lists)) != want {
		return fmt.Errorf("%s: replayed %d intersections, the miner ran %d", q, len(lists), want)
	}
	if len(lists) > 0 {
		lr.intersect = append(lr.intersect, child("kernel.intersect", func() {
			for _, ls := range lists {
				if len(ls) == 2 {
					kernel.Pair(ls[0], ls[1], size, collect)
				} else {
					kernel.KWay(ls, size, collect)
				}
			}
		}))
	}
	return nil
}

// replayTelemetry times the handler of a server with a telemetry hub and of
// one without on the same cached query, alternating, so the difference is
// the hub's per-request cost.
func replayTelemetry(lr *layerRun, w *workload, q query, on, off *server.Server, workers int) error {
	body := mineBody(&workload{profile: w.profile}, q, workers)
	hs := []http.Handler{on.Handler(), off.Handler()}
	serve := func(h http.Handler) (float64, error) {
		req := httptest.NewRequest(http.MethodPost, "/mine", strings.NewReader(string(body)))
		rr := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rr, req)
		d := ms(time.Since(t0))
		if rr.Code != http.StatusOK {
			return 0, fmt.Errorf("telemetry replay %s: HTTP %d", q, rr.Code)
		}
		return d, nil
	}
	for _, h := range hs { // fill both caches
		if _, err := serve(h); err != nil {
			return err
		}
	}
	for i := 0; i < telemetryReps; i++ {
		a, err := serve(hs[0])
		if err != nil {
			return err
		}
		b, err := serve(hs[1])
		if err != nil {
			return err
		}
		lr.telOn = append(lr.telOn, a)
		lr.telOff = append(lr.telOff, b)
	}
	return nil
}

// telemetryReps is the number of alternating handler pairs per query.
const telemetryReps = 32

func nonZero(ps []float64) []float64 {
	out := ps[:0]
	for _, p := range ps {
		if p != 0 {
			out = append(out, p)
		}
	}
	return out
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
