package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestResolve(t *testing.T) {
	cases := []struct{ in, want int }{
		{0, 1},
		{1, 1},
		{2, 2},
		{7, 7},
		{-1, runtime.GOMAXPROCS(0)},
		{-99, runtime.GOMAXPROCS(0)},
	}
	for _, c := range cases {
		if got := Resolve(c.in); got != c.want {
			t.Errorf("Resolve(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

// TestDoRunsEveryTaskExactlyOnce covers serial, fewer-tasks-than-workers and
// more-tasks-than-workers regimes.
func TestDoRunsEveryTaskExactlyOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 16} {
		for _, n := range []int{0, 1, 5, 100} {
			counts := make([]int32, n)
			Do(workers, n, func(i int) {
				atomic.AddInt32(&counts[i], 1)
			})
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: task %d ran %d times", workers, n, i, c)
				}
			}
		}
	}
}

// TestDoBoundsConcurrency: never more than Resolve(workers) tasks in
// flight. Each task parks for a moment so that an over-spawned pool (e.g.
// one goroutine per task instead of per worker) piles tasks up concurrently
// and reliably drives the observed peak past the bound.
func TestDoBoundsConcurrency(t *testing.T) {
	const workers, n = 4, 64
	var inFlight, peak int32
	Do(workers, n, func(i int) {
		cur := atomic.AddInt32(&inFlight, 1)
		for {
			p := atomic.LoadInt32(&peak)
			if cur <= p || atomic.CompareAndSwapInt32(&peak, p, cur) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		atomic.AddInt32(&inFlight, -1)
	})
	if peak > workers {
		t.Fatalf("observed %d concurrent tasks, want ≤ %d", peak, workers)
	}
}

func TestMapPreservesOrder(t *testing.T) {
	in := make([]int, 257)
	for i := range in {
		in[i] = i
	}
	for _, workers := range []int{1, 2, 8} {
		out := Map(workers, in, func(i, v int) int { return v * v })
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
	if got := Map(4, nil, func(i, v int) int { return v }); len(got) != 0 {
		t.Fatalf("Map over nil returned %d elements", len(got))
	}
}

// TestChunkLayoutIndependentOfWorkers is the determinism invariant: the
// chunk decomposition is a function of (n, size) alone.
func TestChunkLayoutIndependentOfWorkers(t *testing.T) {
	const n, size = 10_000, 1024
	layout := func(workers int) [][2]int {
		out := make([][2]int, NumChunks(n, size))
		DoChunks(workers, n, size, func(c, lo, hi int) {
			out[c] = [2]int{lo, hi}
		})
		return out
	}
	ref := layout(1)
	covered := 0
	for c, r := range ref {
		if c > 0 && r[0] != ref[c-1][1] {
			t.Fatalf("chunk %d starts at %d, previous ended at %d", c, r[0], ref[c-1][1])
		}
		covered += r[1] - r[0]
	}
	if covered != n {
		t.Fatalf("chunks cover %d of %d", covered, n)
	}
	for _, workers := range []int{2, 3, 7} {
		got := layout(workers)
		for c := range ref {
			if got[c] != ref[c] {
				t.Fatalf("workers=%d: chunk %d = %v, serial %v", workers, c, got[c], ref[c])
			}
		}
	}
}

func TestNumChunksEdges(t *testing.T) {
	if got := NumChunks(0, 16); got != 0 {
		t.Errorf("NumChunks(0) = %d", got)
	}
	if got := NumChunks(1, 16); got != 1 {
		t.Errorf("NumChunks(1,16) = %d", got)
	}
	if got := NumChunks(16, 16); got != 1 {
		t.Errorf("NumChunks(16,16) = %d", got)
	}
	if got := NumChunks(17, 16); got != 2 {
		t.Errorf("NumChunks(17,16) = %d", got)
	}
	if got := NumChunks(100, 0); got != NumChunks(100, DefaultChunk) {
		t.Errorf("size 0 does not default: %d", got)
	}
}

// TestChunkSizeForSpanInvariants: the adaptive size is a pure function of
// (n, units), refines ChunkSizeFor (never smaller), and shrinks as density
// grows.
func TestChunkSizeForSpanInvariants(t *testing.T) {
	cases := []struct{ n, units int }{
		{0, 0}, {1, 1}, {100, 400}, {100_000, 300_000},
		{100_000, 5_000_000}, {1_000_000, 2_000_000}, {50_000, 50_000 * 40},
	}
	for _, c := range cases {
		got := ChunkSizeForSpan(c.n, c.units)
		if again := ChunkSizeForSpan(c.n, c.units); again != got {
			t.Fatalf("n=%d units=%d: not deterministic (%d vs %d)", c.n, c.units, got, again)
		}
		if lo := ChunkSizeFor(c.n); got < lo {
			t.Fatalf("n=%d units=%d: span size %d below fixed floor %d", c.n, c.units, got, lo)
		}
	}
	// Density monotonicity: more units per row ⇒ chunks no larger.
	const n = 200_000
	prev := ChunkSizeForSpan(n, n)
	for _, width := range []int{2, 4, 8, 16, 64} {
		cur := ChunkSizeForSpan(n, n*width)
		if cur > prev {
			t.Fatalf("width %d: chunk %d grew past %d", width, cur, prev)
		}
		prev = cur
	}
	// Degenerate shapes fall back to the fixed layout.
	if got := ChunkSizeForSpan(500, 0); got != ChunkSizeFor(500) {
		t.Fatalf("units=0: %d, want fixed %d", got, ChunkSizeFor(500))
	}
}
