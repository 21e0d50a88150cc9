package telemetry

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

// TestHistogramBucketPlacement pins the Prometheus bucket semantics: an
// observation v lands in the first bucket whose upper bound is >= v, and a
// value above every bound lands in the +Inf overflow bucket.
func TestHistogramBucketPlacement(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 5})
	for _, v := range []float64{0.5, 1, 1.5, 2, 5, 7} {
		h.Observe(v)
	}
	want := []uint64{2, 2, 1, 1} // le=1: {0.5, 1}; le=2: {1.5, 2}; le=5: {5}; +Inf: {7}
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Errorf("bucket %d: got %d observations, want %d", i, got, w)
		}
	}
	if got := h.Count(); got != 6 {
		t.Errorf("Count() = %d, want 6", got)
	}
	if got, want := h.Sum(), 0.5+1+1.5+2+5+7; math.Abs(got-want) > 1e-9 {
		t.Errorf("Sum() = %g, want %g", got, want)
	}
}

// TestHistogramText is the exposition-format golden: cumulative _bucket
// lines (le merged after fixed labels), then _sum and _count.
func TestHistogramText(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("req_seconds", "request latency", Labels{"phase": "mine"}, []float64{0.5, 1})
	h.Observe(0.25)
	h.Observe(0.75)
	h.Observe(30)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP req_seconds request latency
# TYPE req_seconds histogram
req_seconds_bucket{phase="mine",le="0.5"} 1
req_seconds_bucket{phase="mine",le="1"} 2
req_seconds_bucket{phase="mine",le="+Inf"} 3
req_seconds_sum{phase="mine"} 31
req_seconds_count{phase="mine"} 3
`
	if sb.String() != want {
		t.Errorf("exposition text:\n%s\nwant:\n%s", sb.String(), want)
	}
}

// TestRegistryText pins counter/gauge rendering: families sorted by name,
// children sorted by label set, label keys sorted, values escaped.
func TestRegistryText(t *testing.T) {
	r := NewRegistry()
	RegisterSnapshot(r, func() float64 { return 2.5 }, []Series[float64]{
		{Name: "zz_gauge", Help: "a gauge", Type: Gauge, Value: func(v float64) float64 { return v }},
	})
	RegisterSnapshot(r, func() struct{} { return struct{}{} }, []Series[struct{}]{
		{Name: "aa_total", Help: "a counter", Type: Counter, Labels: Labels{"outcome": "hit"}, Value: func(struct{}) float64 { return 3 }},
		{Name: "aa_total", Help: "a counter", Type: Counter, Labels: Labels{"outcome": `quo"te`}, Value: func(struct{}) float64 { return 1 }},
	})

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP aa_total a counter
# TYPE aa_total counter
aa_total{outcome="hit"} 3
aa_total{outcome="quo\"te"} 1
# HELP zz_gauge a gauge
# TYPE zz_gauge gauge
zz_gauge 2.5
`
	if sb.String() != want {
		t.Errorf("exposition text:\n%s\nwant:\n%s", sb.String(), want)
	}
}

// TestRegisterSnapshotOnce: one exposition takes one snapshot per group,
// however many families and series the group spans, so its families render
// mutually consistent values.
func TestRegisterSnapshotOnce(t *testing.T) {
	type pair struct{ a, b uint64 }
	var calls int
	var cur pair
	r := NewRegistry()
	RegisterSnapshot(r, func() pair {
		calls++
		p := cur
		// Move the source after each read: a second read inside one
		// exposition would render a torn pair.
		cur.a++
		cur.b += 2
		return p
	}, []Series[pair]{
		{Name: "b_total", Help: "b", Type: Counter, Value: func(p pair) float64 { return float64(p.b) }},
		{Name: "a_total", Help: "a", Type: Counter, Value: func(p pair) float64 { return float64(p.a) }},
		{Name: "a_total", Help: "a", Type: Counter, Labels: Labels{"x": "y"}, Value: func(p pair) float64 { return float64(p.a) }},
	})
	for i := 0; i < 3; i++ {
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("# HELP a_total a\n# TYPE a_total counter\na_total %d\na_total{x=\"y\"} %d\n"+
			"# HELP b_total b\n# TYPE b_total counter\nb_total %d\n", i, i, 2*i)
		if sb.String() != want {
			t.Errorf("exposition %d:\n%s\nwant:\n%s", i, sb.String(), want)
		}
	}
	if calls != 3 {
		t.Errorf("snapshot taken %d times over 3 expositions, want 3", calls)
	}
}

// TestRegistryPanics pins the registration bugs that must fail loudly: a
// family registered under two types, and a duplicate label set.
func TestRegistryPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	r := NewRegistry()
	zero := func(int) float64 { return 0 }
	one := func(typ string) []Series[int] {
		return []Series[int]{{Name: "m_total", Help: "m", Type: typ, Value: zero}}
	}
	snap := func() int { return 0 }
	RegisterSnapshot(r, snap, one(Counter))
	mustPanic("type mismatch", func() { RegisterSnapshot(r, snap, one(Gauge)) })
	mustPanic("duplicate labels", func() { RegisterSnapshot(r, snap, one(Counter)) })
	mustPanic("unknown type", func() {
		RegisterSnapshot(r, snap, []Series[int]{{Name: "h", Help: "h", Type: "histogram", Value: zero}})
	})
	mustPanic("non-increasing bounds", func() { NewHistogram([]float64{1, 1}) })
	mustPanic("bad exponential", func() { ExponentialBuckets(0, 2, 4) })
}

func TestExponentialBuckets(t *testing.T) {
	got := ExponentialBuckets(0.001, 2, 4)
	want := []float64{0.001, 0.002, 0.004, 0.008}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("bucket %d: got %g, want %g", i, got[i], want[i])
		}
	}
}

// TestHistogramQuantile checks the histogram_quantile-style interpolation
// and the overflow clamp.
func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	// 10 observations uniformly in the (1, 2] bucket.
	for i := 0; i < 10; i++ {
		h.Observe(1.5)
	}
	// The median rank is 5/10 through a bucket spanning (1, 2].
	if got := h.Quantile(0.5); got < 1 || got > 2 {
		t.Errorf("Quantile(0.5) = %g, want within (1, 2]", got)
	}
	if got := h.Quantile(1); math.Abs(got-2) > 1e-9 {
		t.Errorf("Quantile(1) = %g, want 2 (bucket upper bound)", got)
	}

	// Overflow-only histogram: quantiles clamp to the largest finite bound.
	o := NewHistogram([]float64{1, 2, 4})
	o.Observe(100)
	if got := o.Quantile(0.99); got != 4 {
		t.Errorf("overflow Quantile(0.99) = %g, want clamp to 4", got)
	}

	var empty *Histogram
	if got := empty.Quantile(0.5); got != 0 {
		t.Errorf("nil Quantile = %g, want 0", got)
	}
	empty.Observe(1) // must not panic
	if got := NewHistogram(nil).Quantile(0.5); got != 0 {
		t.Errorf("empty Quantile = %g, want 0", got)
	}
}

// TestHistogramConcurrent exercises the atomic hot path under the race
// detector.
func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(DefBuckets)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(float64(g*i) * 1e-6)
			}
		}(g)
	}
	var sb strings.Builder
	r := NewRegistry()
	RegisterSnapshot(r, h.Count, []Series[uint64]{
		{Name: "c_total", Help: "c", Type: Counter, Value: func(n uint64) float64 { return float64(n) }},
	})
	for i := 0; i < 50; i++ {
		sb.Reset()
		if err := r.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if got := h.Count(); got != 8000 {
		t.Errorf("Count() = %d, want 8000", got)
	}
}
