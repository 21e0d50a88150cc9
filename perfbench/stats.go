package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"umine/internal/server"
)

// metric is one reported number with its unit and sample count.
type metric struct {
	name  string
	value float64
	unit  string
	n     int
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of xs
// and how many samples lie strictly beyond it. xs need not be sorted.
func percentile(xs []float64, p float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	rank = min(max(rank, 1), len(s))
	return s[rank-1], len(s) - rank
}

// median is the 50th percentile, 0 for no samples.
func median(xs []float64) float64 {
	v, _ := percentile(xs, 50)
	return v
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// resetPeakRSS restarts this process's VmHWM from the current resident set
// (Linux clear_refs "5"), so each pass reports its own peak. Where the
// kernel refuses, the peak simply keeps covering the whole process.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads this process's VmHWM, the peak resident set size.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// cacheFracs splits the mines between two Stats snapshots by cache outcome.
// A bypassed (no_cache) mine counts as a miss: both mined. The fractions
// sum to 1 whenever any mine completed.
func cacheFracs(a, b server.Stats) (hit, filtered, coalesced, miss float64, n int) {
	dh := b.CacheHits - a.CacheHits
	df := b.CacheFiltered - a.CacheFiltered
	dc := b.Coalesced - a.Coalesced
	dm := (b.CacheMisses - a.CacheMisses) + (b.Uncached - a.Uncached)
	total := dh + df + dc + dm
	if total == 0 {
		return 0, 0, 0, 0, 0
	}
	t := float64(total)
	return float64(dh) / t, float64(df) / t, float64(dc) / t, float64(dm) / t, int(total)
}
