package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"umine/internal/core"
	"umine/internal/dataset"
)

// A workload is one traffic mix against one generated dataset. The dataset
// (profile, scale, generator seed) is part of the workload's definition and
// never changes with --seed; the seed drives only the generated requests:
// their order and the ingested batches.
type workload struct {
	name    string
	profile string
	scale   float64
	shards  int  // RegisterOptions.Shards of the served dataset
	noCache bool // every /mine sets no_cache
	// clients is the number of closed-loop client goroutines; 0 means
	// nproc.
	clients int
	// queries is the query universe: every query a pass may send.
	queries []query
	// zipfOps > 0 sends that many Zipf-popular mines per pass from
	// queries (the universe's order is the popularity rank); 0 sends every
	// query once per pass.
	zipfOps int
	// ingestEvery > 0 inserts an /ingest of batchSize transactions after
	// every ingestEvery-th mine.
	ingestEvery int
	batchSize   int
	// replay lists the universe indexes whose layers the traced run
	// replays by direct calls.
	replay []int
}

// dataSeed is the generator seed of every workload's served dataset.
const dataSeed = 42

// query is one /mine question.
type query struct {
	Algo string
	Th   core.Thresholds
}

func (q query) String() string {
	if q.Th.MinESup > 0 {
		return fmt.Sprintf("%s min_esup=%g", q.Algo, q.Th.MinESup)
	}
	return fmt.Sprintf("%s min_sup=%g pft=%g", q.Algo, q.Th.MinSup, q.Th.PFT)
}

// stricter returns the same query at a higher threshold of the kind the
// result cache answers by filtering q's cached result: a higher min_esup, or
// the same min_sup at a higher pft.
func (q query) stricter() query {
	out := q
	if out.Th.MinESup > 0 {
		out.Th.MinESup = round6(q.Th.MinESup * 1.25)
	} else {
		out.Th.PFT = round6(q.Th.PFT + (1-q.Th.PFT)/2)
	}
	return out
}

type opKind int

const (
	opMine opKind = iota
	opIngest
)

// op is one request of a pass. For mines Q is the question; ingests take
// the next batch of the run's ingest stream when they are sent.
type op struct {
	Kind opKind
	Q    query
}

// Thresholds are built from integer grids so every value prints exactly as
// it is written here.
func esupQueries(algos []string, lo, step float64, n int) []query {
	var out []query
	for _, a := range algos {
		for i := 0; i < n; i++ {
			out = append(out, query{a, core.Thresholds{MinESup: round6(lo + float64(i)*step)}})
		}
	}
	return out
}

func probQueries(algos []string, sups, pfts []float64) []query {
	var out []query
	for _, a := range algos {
		for _, s := range sups {
			for _, p := range pfts {
				out = append(out, query{a, core.Thresholds{MinSup: s, PFT: p}})
			}
		}
	}
	return out
}

func grid(lo, step float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = round6(lo + float64(i)*step)
	}
	return out
}

func round6(x float64) float64 {
	v, _ := strconv.ParseFloat(strconv.FormatFloat(x, 'f', 6, 64), 64)
	return v
}

var (
	exactAlgos = []string{"DPNB", "DPB", "DCNB", "DCB"}
	// NDUH-Mine answers the probabilistic definition through the Normal
	// approximation; its thresholds use min_sup/pft.
	sparseAlgos = []string{"UApriori", "UH-Mine", "UFP-growth", "NDUH-Mine"}
	approxAlgos = []string{"PDUApriori", "NDUApriori", "NDUH-Mine"}
)

// workloads are the benchmark's traffic mixes; README.md records why each
// was chosen and which layer it stresses.
var workloads = map[string]*workload{
	"exact-dense": func() *workload {
		w := &workload{
			name: "exact-dense", profile: "accident", scale: 0.004,
			noCache: true, clients: 1,
			queries: probQueries(exactAlgos, grid(0.2, 0.01, 8), []float64{0.7, 0.9}),
		}
		// Replay two thresholds shared by all four algorithms, so DCNB and
		// DPNB are compared on the same questions.
		for a := range exactAlgos {
			w.replay = append(w.replay, a*16+5, a*16+10)
		}
		return w
	}(),
	"esup-sparse": func() *workload {
		w := &workload{
			name: "esup-sparse", profile: "kosarak", scale: 0.01,
			noCache: true, clients: 1,
		}
		for _, a := range sparseAlgos {
			for _, s := range grid(0.0022, 0.000125, 16) {
				if a == "NDUH-Mine" {
					w.queries = append(w.queries, query{a, core.Thresholds{MinSup: s, PFT: 0.9}})
				} else {
					w.queries = append(w.queries, query{a, core.Thresholds{MinESup: s}})
				}
			}
		}
		// Index 0 (min_esup 0.0022) is the grid's one threshold at which
		// UApriori counts a level with the vertical plan, so the replays
		// exercise the intersection kernels.
		for a := range sparseAlgos {
			w.replay = append(w.replay, a*16, a*16+10)
		}
		return w
	}(),
	"serve-mixed": func() *workload {
		w := &workload{
			name: "serve-mixed", profile: "accident", scale: 0.004,
			shards: 4, zipfOps: 384, ingestEvery: 64, batchSize: 2,
		}
		// 32 thresholds for each of nine algorithms: 288 queries, more than
		// the 256-entry default result cache. The thresholds keep most
		// sharded misses under 100 ms. UFP-growth is left out: its
		// sharded miss costs 135–1100 ms on this dense profile, and its
		// few misses alone swung mines_per_s by a fifth between runs of the
		// same seed; esup-sparse measures it.
		var universe []query
		universe = append(universe, esupQueries([]string{"UApriori", "UH-Mine"}, 0.2, 0.008, 32)...)
		universe = append(universe, probQueries(exactAlgos, grid(0.33, 0.01, 16), []float64{0.7, 0.9})...)
		universe = append(universe, probQueries(approxAlgos, grid(0.2, 0.01, 16), []float64{0.7, 0.9})...)
		// Popularity ranks interleave the algorithms so every family has
		// head and tail queries; the permutation is fixed, not seeded.
		rng := rand.New(rand.NewSource(dataSeed))
		perm := rng.Perm(len(universe))
		w.queries = make([]query, len(universe))
		for i, p := range perm {
			w.queries[i] = universe[p]
		}
		// One replayed query per algorithm: its most popular one.
		seen := map[string]bool{}
		for i, q := range w.queries {
			if !seen[q.Algo] {
				seen[q.Algo] = true
				w.replay = append(w.replay, i)
			}
		}
		return w
	}(),
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// zipfExponent shapes serve-mixed's popularity: rank r is asked with
// frequency ∝ 1/(r+1)^s.
const zipfExponent = 1.5

// zipfCounts splits total requests over n popularity ranks in proportion
// to the Zipf frequencies, by largest remainder. A pass asks each query
// exactly its expected number of times and the seed only orders them:
// random draws made the mix itself differ between seeds, which moved
// mines_per_s by a third from one seed to the next.
func zipfCounts(n, total int) []int {
	weights := make([]float64, n)
	sum := 0.0
	for r := range weights {
		weights[r] = math.Pow(float64(r+1), -zipfExponent)
		sum += weights[r]
	}
	counts := make([]int, n)
	rem := make([]int, n)
	left := total
	for r, wt := range weights {
		exact := wt / sum * float64(total)
		counts[r] = int(exact)
		left -= counts[r]
		rem[r] = r
		weights[r] = exact - float64(counts[r])
	}
	sort.SliceStable(rem, func(a, b int) bool { return weights[rem[a]] > weights[rem[b]] })
	for _, r := range rem[:left] {
		counts[r]++
	}
	return counts
}

// passes returns the generator of a run's passes for seed: pass i is the
// workload's whole query multiset in an order drawn from the seed, so the
// same seed always yields the same sequence of passes, and a run, which
// only stops between passes, always stops at the same point of the query
// cycle.
func (w *workload) passes(seed int64) func() []op {
	rng := rand.New(rand.NewSource(seed))
	return func() []op { return w.pass(rng) }
}

func (w *workload) pass(rng *rand.Rand) []op {
	var mines []query
	if w.zipfOps > 0 {
		for i, c := range zipfCounts(len(w.queries), w.zipfOps) {
			for ; c > 0; c-- {
				mines = append(mines, w.queries[i])
			}
		}
	} else {
		mines = append(mines, w.queries...)
	}
	rng.Shuffle(len(mines), func(i, j int) { mines[i], mines[j] = mines[j], mines[i] })
	ops := make([]op, 0, len(mines)+len(mines)/max(w.ingestEvery, 1))
	for i, q := range mines {
		ops = append(ops, op{Kind: opMine, Q: q})
		if w.ingestEvery > 0 && (i+1)%w.ingestEvery == 0 {
			ops = append(ops, op{Kind: opIngest})
		}
	}
	return ops
}

// ingestPool generates the transactions serve-mixed ingests: the same
// profile as the served dataset under a seed derived from the run's seed,
// so the batches differ per seed but always look like the base data.
func (w *workload) ingestPool(seed int64) [][]core.Unit {
	db := dataset.Profiles[w.profile].GenerateUncertain(w.scale, dataSeed+1+seed)
	pool := make([][]core.Unit, db.N())
	for j := range pool {
		t := db.Tx(j)
		units := make([]core.Unit, t.Len())
		for i := range units {
			units[i] = core.Unit{Item: t.Items[i], Prob: t.Probs[i]}
		}
		pool[j] = units
	}
	return pool
}

// batch returns the i-th ingest batch of the run, cycling through the pool.
func (w *workload) batch(pool [][]core.Unit, i int) [][]core.Unit {
	out := make([][]core.Unit, w.batchSize)
	for k := range out {
		out[k] = pool[(i*w.batchSize+k)%len(pool)]
	}
	return out
}

// mineBody is the POST /mine request body for q.
func mineBody(w *workload, q query, workers int) []byte {
	body := map[string]any{"dataset": w.profile, "algorithm": q.Algo}
	if q.Th.MinESup > 0 {
		body["min_esup"] = q.Th.MinESup
	} else {
		body["min_sup"] = q.Th.MinSup
		body["pft"] = q.Th.PFT
	}
	if w.noCache {
		body["no_cache"] = true
		body["workers"] = workers
	}
	b, _ := json.Marshal(body) // a map of strings, numbers and bools always encodes
	return b
}

// ingestBody is the POST /ingest request body for one batch, in the
// item:prob text format at full float precision (the round trip is exact).
func ingestBody(w *workload, batch [][]core.Unit) []byte {
	lines := make([]string, len(batch))
	for i, units := range batch {
		parts := make([]string, len(units))
		for k, u := range units {
			parts[k] = fmt.Sprintf("%d:%s", u.Item, strconv.FormatFloat(u.Prob, 'g', -1, 64))
		}
		lines[i] = strings.Join(parts, " ")
	}
	b, _ := json.Marshal(map[string]any{"dataset": w.profile, "transactions": lines})
	return b
}
