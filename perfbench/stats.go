package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
)

// tailCandidates are the percentiles a tail is reported at, highest
// first.
var tailCandidates = []float64{99.99, 99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest percentile with at least ten of n
// samples beyond it, and false when even the median has fewer.
func tailPercentile(n int) (float64, bool) {
	for _, p := range tailCandidates {
		if n-rank(n, p) >= 10 {
			return p, true
		}
	}
	return 0, false
}

// rank is the 1-based nearest-rank position of percentile p among n
// sorted samples. The epsilon keeps p/100·n from rounding up past an
// exact rank (99.9/100·10000 is 9990.000000000002 in floating point).
func rank(n int, p float64) int {
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// percentile returns the nearest-rank percentile p of the samples; 0
// for none. The input is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[rank(len(s), p)-1]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// ms converts durations to milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

// us converts durations to microseconds.
func us(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e3
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime returns the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// liveHeapBytes collects garbage and returns the bytes still reachable.
// Two collections: the first only moves sync.Pool contents to the pools'
// victim caches, the second frees them.
func liveHeapBytes() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64())
}

// goStats is a reading of the Go runtime's allocation and GC counters.
type goStats struct {
	allocs, allocBytes float64
	gcCPU, totalCPU    float64
}

var goStatNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readGoStats() goStats {
	s := make([]metrics.Sample, len(goStatNames))
	for i, n := range goStatNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return goStats{allocs: v(0), allocBytes: v(1), gcCPU: v(2), totalCPU: v(3)}
}

// setGoMetrics records the runtime's work between two readings: allocs
// per operation, MB allocated per run and the GC's share of CPU time.
func setGoMetrics(r *result, before, after goStats, ops, runs int) {
	r.set("go.allocs_per_resolve", ratio(after.allocs-before.allocs, float64(ops)))
	r.set("go.alloc_mb_per_run", ratio(after.allocBytes-before.allocBytes, float64(runs))/(1<<20))
	r.set("go.gc_cpu_share", ratio(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU))
}
