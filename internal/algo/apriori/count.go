package apriori

import (
	"context"
	"unsafe"

	"umine/internal/core"
	"umine/internal/parallel"
)

// The counting pass. Candidates of one level are organized into a prefix
// trie; each transaction is walked against the trie once, accumulating the
// containment-probability product along every matching path. This is the
// uncertain analogue of the classical hash-tree subset counting and is
// shared verbatim by every Apriori-framework miner, as the paper's uniform
// platform demands.
//
// Since the arena refactor the pass has two physical plans over the same
// logical scan:
//
//   - horizontal: walk every transaction view (a contiguous range of the
//     database's columnar arena) against the trie — one pass counts every
//     candidate; cost ~ Σ|T_j| per level regardless of candidate count;
//   - vertical: intersect the candidates' per-item postings lists from the
//     lazily built core.VerticalIndex — cost proportional to the smallest
//     posting list per candidate, which wins when candidates are few and
//     sparse (see useVertical in vertical.go).
//
// Both plans produce bit-identical aggregates by construction: they multiply
// unit probabilities in the same (canonical item) order, accumulate
// per-transaction contributions in TID order, and fold partial sums with the
// same chunk grouping (chunkSizeFor), so the crossover heuristic — like the
// worker count — can never change a result bit.

// chunkSizeFor is the one chunk-sizing decision every counting plan in this
// package derives from a database view: the adaptive ChunkSizeForSpan layout
// over (transactions, arena units). Both physical plans — and the legacy
// benchmark emulation — must call this helper rather than sizing chunks
// themselves: the chunk grouping pins how floating-point partial sums fold,
// so two plans sizing differently would stop being bit-comparable. The size
// is a pure function of the view's shape, never of Workers.
func chunkSizeFor(db *core.Database) int {
	return parallel.ChunkSizeForSpan(db.N(), db.NumUnits())
}

type trieNode struct {
	item     core.Item
	children []*trieNode
	// leaf indexes into the candidate slice at depth k; −1 otherwise.
	leaf int
}

// buildTrie constructs the candidate prefix trie. Candidates must all have
// the same length and be in canonical itemset order (generate produces
// them sorted; level 1 is trivially sorted).
func buildTrie(cands []Candidate) *trieNode {
	root := &trieNode{leaf: -1}
	for ci := range cands {
		n := root
		for _, it := range cands[ci].Items {
			var child *trieNode
			// Candidates arrive sorted, so the child is the last one if it
			// exists.
			if len(n.children) > 0 && n.children[len(n.children)-1].item == it {
				child = n.children[len(n.children)-1]
			} else {
				child = &trieNode{item: it, leaf: -1}
				n.children = append(n.children, child)
			}
			n = child
		}
		n.leaf = ci
	}
	return root
}

// countLevel performs one database scan, accumulating ESup, Var and
// (optionally) the probability vector of every candidate.
func countLevel(db *core.Database, cands []Candidate, k int, collectProbs bool, stats *core.MiningStats) {
	if len(cands) == 0 {
		return
	}
	trie := buildTrie(cands)
	stats.DBScans++
	stats.TransactionsScanned += db.N()
	visit := func(leaf int, p float64) {
		c := &cands[leaf]
		c.ESup += p
		c.Var += p * (1 - p)
		if collectProbs {
			c.Probs = append(c.Probs, p)
		}
	}
	items, probs, offsets := db.Columns()
	for j, n := 0, db.N(); j < n; j++ {
		ts, te := int(offsets[j]), int(offsets[j+1])
		if te-ts < k {
			continue
		}
		walkTrie(trie, items, probs, ts, te, 1, visit)
	}
	stats.TrackPeak(trieBytes(trie) + candidateBytes(cands, collectProbs))
}

// trieBytes estimates the trie's heap footprint for the memory reports.
func trieBytes(root *trieNode) int64 {
	var size int64
	var visit func(n *trieNode)
	visit = func(n *trieNode) {
		size += int64(unsafe.Sizeof(*n)) + int64(len(n.children))*int64(unsafe.Sizeof((*trieNode)(nil)))
		for _, c := range n.children {
			visit(c)
		}
	}
	visit(root)
	return size
}

func candidateBytes(cands []Candidate, collectProbs bool) int64 {
	var size int64
	for i := range cands {
		size += int64(unsafe.Sizeof(cands[i])) + int64(len(cands[i].Items))*4
		if collectProbs {
			// len, not cap: append-growth slack depends on whether vectors
			// grew element-wise (serial) or in chunk batches (parallel),
			// and the tracked peak must be identical for every worker
			// count.
			size += int64(len(cands[i].Probs)) * 8
		}
	}
	return size
}

// count runs one counting pass on the shared parallel layer, picking the
// vertical postings-intersection plan when the crossover heuristic says it
// is cheaper and the chunk-sharded horizontal scan otherwise. The chunk
// layout is a function of the database shape alone (chunkSizeFor), per-chunk
// aggregates merge in chunk order, and the vertical plan folds the same
// chunk grouping, so the pass returns bit-identical aggregates for every
// cfg.Workers value ≥ 1 and for either plan: the worker count only decides
// how many goroutines claim work, never how the floating-point sums
// associate. Cancellation lands between chunks (horizontal) or between
// candidates (vertical); on a non-nil error the candidates' aggregates are
// partial and must be discarded.
func count(ctx context.Context, db *core.Database, cands []Candidate, k int, cfg Config, stats *core.MiningStats, exec *core.ExecStats) error {
	if len(cands) == 0 {
		return ctx.Err()
	}
	// Plan-choice accounting: one counter bump per level-counting decision,
	// so an EXPLAIN can report which physical plan each pass executed. The
	// decision itself (useVertical) is deterministic and worker-independent,
	// so these counters are too.
	if useVertical(db, cands, k) {
		stats.VerticalPlans++
		return countVertical(ctx, db, cands, cfg.CollectProbs, cfg.Workers, stats, exec)
	}
	stats.HorizontalPlans++
	return countChunked(ctx, db, cands, k, cfg.CollectProbs, cfg.Workers, stats)
}

// shardAccum holds one chunk's per-candidate aggregates.
type shardAccum struct {
	esup, varsup []float64
	probs        [][]float64
}

// countChunked is the chunk-sharded counting pass behind count. Every chunk
// walks its contiguous transaction range against the shared trie (read-only
// during the walk) into per-chunk accumulators; chunks merge in chunk order,
// so probability vectors remain in global transaction order. A single-chunk
// layout (small databases) accumulates directly into the candidates —
// bit-identical to the serial reference countLevel.
//
// PeakTrackedBytes stays the algorithm's structures (trie + candidates):
// the transient accumulators are execution-layer overhead, visible to the
// eval heap sampler but excluded here so the paper-style memory reports —
// and the per-level peaks — are identical for every worker count.
func countChunked(ctx context.Context, db *core.Database, cands []Candidate, k int, collectProbs bool, workers int, stats *core.MiningStats) error {
	if len(cands) == 0 {
		return ctx.Err()
	}
	n := db.N()
	size := chunkSizeFor(db)
	nc := parallel.NumChunks(n, size)
	if nc <= 1 {
		// Single-chunk layouts (≤ one chunk of transactions) are already
		// within the "one chunk of work" cancellation bound.
		if err := ctx.Err(); err != nil {
			return err
		}
		countLevel(db, cands, k, collectProbs, stats)
		return nil
	}
	trie := buildTrie(cands)
	stats.DBScans++
	stats.TransactionsScanned += db.N()
	var err error
	if parallel.Resolve(workers) == 1 {
		err = countChunkedSerial(ctx, db, trie, cands, k, collectProbs, size, nc)
	} else {
		err = countChunkedParallel(ctx, db, trie, cands, k, collectProbs, workers, size, nc)
	}
	if err != nil {
		return err
	}
	stats.TrackPeak(trieBytes(trie) + candidateBytes(cands, collectProbs))
	return nil
}

// countChunkedSerial executes the chunked reduction inline: chunks run in
// order, each accumulating into one reused scratch pair that folds into the
// candidates after every chunk. The fold order — per-chunk partial added in
// chunk order, including zero partials for untouched candidates — matches
// countChunkedParallel's merge exactly, so the two paths are bit-identical;
// the scratch is the only extra memory over the pre-chunking serial pass.
// Probability vectors append directly (chunks in order ⇒ transaction
// order), with no per-chunk copies.
func countChunkedSerial(ctx context.Context, db *core.Database, trie *trieNode, cands []Candidate, k int, collectProbs bool, size, nc int) error {
	esup := make([]float64, len(cands))
	varsup := make([]float64, len(cands))
	items, probs, offsets := db.Columns()
	n := db.N()
	done := ctx.Done()
	for c := 0; c < nc; c++ {
		if done != nil {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
		}
		lo, hi := c*size, (c+1)*size
		if hi > n {
			hi = n
		}
		for j := lo; j < hi; j++ {
			ts, te := int(offsets[j]), int(offsets[j+1])
			if te-ts < k {
				continue
			}
			walkTrie(trie, items, probs, ts, te, 1, func(leaf int, p float64) {
				esup[leaf] += p
				varsup[leaf] += p * (1 - p)
				if collectProbs {
					cands[leaf].Probs = append(cands[leaf].Probs, p)
				}
			})
		}
		for ci := range cands {
			cands[ci].ESup += esup[ci]
			cands[ci].Var += varsup[ci]
			esup[ci], varsup[ci] = 0, 0
		}
	}
	return nil
}

// countChunkedParallel materializes one accumulator per chunk (chunks
// complete out of order on the pool) and merges them in chunk order.
// Per-chunk probability vectors are released as soon as they are merged,
// so the copies do not all outlive the merge.
func countChunkedParallel(ctx context.Context, db *core.Database, trie *trieNode, cands []Candidate, k int, collectProbs bool, workers, size, nc int) error {
	accums := make([]shardAccum, nc)
	items, probs, offsets := db.Columns()
	err := parallel.DoChunksCtx(ctx, workers, db.N(), size, func(c, lo, hi int) {
		acc := &accums[c]
		acc.esup = make([]float64, len(cands))
		acc.varsup = make([]float64, len(cands))
		if collectProbs {
			acc.probs = make([][]float64, len(cands))
		}
		for j := lo; j < hi; j++ {
			ts, te := int(offsets[j]), int(offsets[j+1])
			if te-ts < k {
				continue
			}
			walkTrie(trie, items, probs, ts, te, 1, func(leaf int, p float64) {
				acc.esup[leaf] += p
				acc.varsup[leaf] += p * (1 - p)
				if collectProbs {
					acc.probs[leaf] = append(acc.probs[leaf], p)
				}
			})
		}
	})
	if err != nil {
		return err
	}

	for c := range accums {
		acc := &accums[c]
		for ci := range cands {
			cands[ci].ESup += acc.esup[ci]
			cands[ci].Var += acc.varsup[ci]
			if collectProbs && len(acc.probs[ci]) > 0 {
				cands[ci].Probs = append(cands[ci].Probs, acc.probs[ci]...)
			}
		}
		*acc = shardAccum{}
	}
	return nil
}

// walkTrie walks one transaction — the arena column range [start, end) —
// against the candidate trie, invoking visit with the candidate index and
// the accumulated containment probability at every matched leaf. Operating
// on the flat columns directly (instead of per-transaction views) keeps the
// innermost loop of the platform free of view construction and slice-header
// traffic. Shared by the serial and parallel counting passes.
func walkTrie(n *trieNode, items []core.Item, probs []float64, start, end int, p float64, visit func(leaf int, p float64)) {
	if n.leaf >= 0 {
		visit(n.leaf, p)
		return // fixed depth: leaves have no children
	}
	i := start
	for _, child := range n.children {
		for i < end && items[i] < child.item {
			i++
		}
		if i == end {
			return
		}
		if items[i] == child.item {
			walkTrie(child, items, probs, i+1, end, p*probs[i], visit)
		}
	}
}

// CountLevel exposes the shared trie counting pass to sibling algorithm
// packages (the uniform-platform requirement: every miner counts the same
// way). Candidates must share one length k and be in canonical order.
func CountLevel(db *core.Database, cands []Candidate, k int, collectProbs bool, stats *core.MiningStats) {
	countLevel(db, cands, k, collectProbs, stats)
}
