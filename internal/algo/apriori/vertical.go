package apriori

import (
	"context"

	"umine/internal/core"
	"umine/internal/kernel"
	"umine/internal/parallel"
)

// The vertical counting plan: instead of scanning every transaction against
// the candidate trie, each candidate's expected support is computed by
// intersecting its items' TID postings lists from the database's lazily
// built vertical index (core.VerticalIndex, U-Eclat style). The cost is
// proportional to the candidate's smallest posting list, not to the
// database, so sparse candidate sets — late levels, restricted phase-2
// verification passes, long-tailed universes — count in a fraction of a
// horizontal scan.
//
// Bit-identity with the horizontal plan is structural, not approximate:
//
//   - a transaction's containment probability multiplies the unit
//     probabilities in canonical item order, exactly the trie walk's
//     root-to-leaf order;
//   - contributions accumulate in ascending TID order, the scan order;
//   - partial sums fold with the chunk grouping of chunkSizeFor (the
//     adaptive parallel.ChunkSizeForSpan layout, a function of the database
//     shape alone) — the grouping the chunk-sharded horizontal merge uses —
//     and a chunk whose partial is zero is a no-op in both plans (x + 0 ≡ x
//     for the non-negative sums involved).
//
// Hence count may switch plans per level (and the partition engine's
// restricted runs may see a different choice than a single-shot mine)
// without moving a single result bit.

// verticalProbeCost weights one posting-list probe against one sequential
// unit visit of the horizontal scan: probes advance cursors over k lists
// with worse locality than the arena's contiguous columns. Chosen
// conservatively so the crossover errs toward the (always safe) horizontal
// plan.
const verticalProbeCost = 4

// useVertical is the crossover heuristic: intersect postings when the
// estimated probe work (smallest posting list × k probes × cost factor,
// summed over candidates) undercuts one horizontal scan of the arena span.
// The decision depends only on the database view and the candidate set —
// never on Workers — so plan choice is deterministic and cannot differ
// between worker counts. Level 1 always scans horizontally: a single scan
// aggregates every item at once, which no per-item probing can beat.
func useVertical(db *core.Database, cands []Candidate, k int) bool {
	if k < 2 || len(cands) == 0 {
		return false
	}
	counts := db.ItemTIDCounts()
	hcost := float64(db.NumUnits())
	vcost := 0.0
	for ci := range cands {
		minLen := uint32(0)
		for i, it := range cands[ci].Items {
			if c := counts[it]; i == 0 || c < minLen {
				minLen = c
			}
		}
		vcost += float64(minLen) * float64(k) * verticalProbeCost
		if vcost >= hcost {
			return false
		}
	}
	return true
}

// countVertical counts every candidate by postings intersection. Candidates
// are independent — each one's floating-point work is self-contained — so
// they fan out over the worker pool and merge in candidate order; results
// are bit-identical for every worker count and to the horizontal plan.
// Cancellation lands between candidates (parallel.DoCtx's per-task check).
//
// The intersections themselves live in internal/kernel, whose tests pin
// them bitwise to the plan's original scalar loops; exec counts the level's
// kernel intersections.
func countVertical(ctx context.Context, db *core.Database, cands []Candidate, collectProbs bool, workers int, stats *core.MiningStats, exec *core.ExecStats) error {
	if len(cands) == 0 {
		return ctx.Err()
	}
	v := db.Vertical()
	// One logical counting pass over the data, same as a horizontal scan —
	// keeping DBScans comparable across plans and levels.
	stats.DBScans++
	size := chunkSizeFor(db)
	outs, err := parallel.MapCtx(ctx, workers, cands, func(ci int, _ Candidate) kernel.Agg {
		return intersect(v, cands[ci].Items, size, collectProbs)
	})
	if err != nil {
		return err
	}
	for ci := range cands {
		cands[ci].ESup += outs[ci].ESup
		cands[ci].Var += outs[ci].Var
		if collectProbs && len(outs[ci].Probs) > 0 {
			cands[ci].Probs = append(cands[ci].Probs, outs[ci].Probs...)
		}
		stats.PostingsProbed += outs[ci].Probes
	}
	exec.KernelIntersects += int64(len(cands))
	// The index is this plan's dominant live structure — tracked like the
	// horizontal plan's trie so the paper-style memory reports compare like
	// quantities across plans and families.
	stats.TrackPeak(v.Bytes() + candidateBytes(cands, collectProbs))
	return nil
}

// intersect runs one candidate's postings intersection through the
// internal/kernel implementations. The k = 2 fast path and the generic
// k-way driver are dispatched here (not inside the kernels) so the generic
// path stays independently testable; probe accounting follows the
// dispatched path, the aggregates are bit-identical either way.
func intersect(v *core.VerticalIndex, items core.Itemset, chunkSize int, collectProbs bool) kernel.Agg {
	if len(items) == 2 {
		var a, b kernel.List
		a.TIDs, a.Probs = v.Postings(items[0])
		b.TIDs, b.Probs = v.Postings(items[1])
		return kernel.Pair(a, b, chunkSize, collectProbs)
	}
	lists := make([]kernel.List, len(items))
	for i, it := range items {
		lists[i].TIDs, lists[i].Probs = v.Postings(it)
	}
	return kernel.KWay(lists, chunkSize, collectProbs)
}
