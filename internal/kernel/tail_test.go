package kernel

import (
	"math"
	"math/rand"
	"testing"

	"umine/internal/prob"
)

// genProbs builds a probability vector with the shapes the DP kernel's
// optimizations care about: quantized values (multiples of 1/64), a zeroFrac
// share of exact zeros (the reference skips them) and a oneFrac share of
// exact ones (mass shifts, no spreading).
func genProbs(rng *rand.Rand, n int, zeroFrac, oneFrac float64) []float64 {
	ps := make([]float64, n)
	for i := range ps {
		switch r := rng.Float64(); {
		case r < zeroFrac:
			ps[i] = 0
		case r < zeroFrac+oneFrac:
			ps[i] = 1
		default:
			ps[i] = float64(1+rng.Intn(64)) / 64
		}
	}
	return ps
}

func tailEqual(t *testing.T, label string, ps []float64, minCount int) {
	t.Helper()
	got := FreqTailDP(ps, minCount)
	want := prob.PBFreqProbDP(ps, minCount)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s (n=%d, minCount=%d): FreqTailDP %v (%#x) != reference %v (%#x)",
			label, len(ps), minCount, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestFreqTailDPMatchesScalar pins the optimized DP bitwise to the
// reference recurrence, prob.PBFreqProbDP, across the shapes that exercise each skipped region: minCount
// close to n (the dead window dominates), minCount tiny (the zero triangle
// dominates), vectors with exact zeros (the conservative remaining-steps
// bound) and exact ones, plus the degenerate thresholds.
func TestFreqTailDPMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(400)
		zeroFrac, oneFrac := 0.0, 0.0
		switch trial % 4 {
		case 1:
			zeroFrac = 0.3
		case 2:
			oneFrac = 0.2
		case 3:
			zeroFrac, oneFrac = 0.4, 0.1
		}
		ps := genProbs(rng, n, zeroFrac, oneFrac)
		for _, minCount := range []int{0, 1, n / 4, n / 2, n - 1, n, n + 1} {
			tailEqual(t, "random", ps, minCount)
		}
	}
	// All-zero vector: the early return must agree with the untouched row.
	zeros := make([]float64, 50)
	for _, minCount := range []int{0, 1, 25, 50, 51} {
		tailEqual(t, "all-zero", zeros, minCount)
	}
	tailEqual(t, "empty", nil, 0)
	tailEqual(t, "empty", nil, 1)
}

// TestFreqTailDPMatchesTruncatedDist cross-checks the DP against the prob
// package's independent truncated-convolution tail: two different exact
// algorithms for Pr{K ≥ minCount} must agree to float tolerance (their
// summation orders differ, so bitwise equality is not expected here).
func TestFreqTailDPMatchesTruncatedDist(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(200)
		ps := genProbs(rng, n, 0.1, 0.05)
		minCount := rng.Intn(n + 1)
		got := FreqTailDP(ps, minCount)
		want := prob.PBTailGE(ps, minCount)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("n=%d minCount=%d: FreqTailDP %v, PBTailGE %v", n, minCount, got, want)
		}
	}
}

// decodeProbs turns fuzz bytes into a probability vector within the kernel's
// [0, 1] domain: 0 maps to an exact zero, 64 to an exact one, the rest to
// quantized interior values.
func decodeProbs(data []byte) []float64 {
	ps := make([]float64, len(data))
	for i, b := range data {
		ps[i] = float64(int(b)%65) / 64
	}
	return ps
}

// FuzzFreqTailBitIdentity fuzzes the satellite property for the DP kernel:
// bit-identity to the reference recurrence (prob.PBFreqProbDP) across
// arbitrary probability vectors and thresholds.
func FuzzFreqTailBitIdentity(f *testing.F) {
	f.Add([]byte{}, 0)
	f.Add([]byte{32, 0, 64, 17}, 2)
	f.Add([]byte{0, 0, 0, 1}, 3)
	f.Fuzz(func(t *testing.T, data []byte, minCount int) {
		if minCount < -1 || minCount > len(data)+1 {
			minCount = len(data) / 2
		}
		ps := decodeProbs(data)
		tailEqual(t, "fuzz", ps, minCount)
	})
}

func benchProbs(n int) []float64 {
	rng := rand.New(rand.NewSource(5))
	return genProbs(rng, n, 0, 0)
}

// The DP micro-benchmarks mirror the verification workload: n containment
// probabilities against minCount = 681 (accident @ 0.01's min_sup count).
// The borderline shape (n barely above minCount) is the common case count
// pruning lets through; the wide shape is the worst case for the skipped
// triangles.
func BenchmarkFreqTailDPBorderline(b *testing.B) {
	ps := benchProbs(800)
	for i := 0; i < b.N; i++ {
		FreqTailDP(ps, 681)
	}
}

func BenchmarkFreqTailDPReferenceBorderline(b *testing.B) {
	ps := benchProbs(800)
	for i := 0; i < b.N; i++ {
		prob.PBFreqProbDP(ps, 681)
	}
}

func BenchmarkFreqTailDPWide(b *testing.B) {
	ps := benchProbs(3400)
	for i := 0; i < b.N; i++ {
		FreqTailDP(ps, 681)
	}
}

func BenchmarkFreqTailDPReferenceWide(b *testing.B) {
	ps := benchProbs(3400)
	for i := 0; i < b.N; i++ {
		prob.PBFreqProbDP(ps, 681)
	}
}
