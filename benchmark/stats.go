package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// usage is a point-in-time reading of the process's resource counters.
// Differences between two readings give a window's wall time, CPU time
// (user+system, every thread of the process, so in-process servers and
// replicas count) and heap bytes allocated.
type usage struct {
	wall       time.Time
	cpu        time.Duration
	allocBytes uint64
	allocObjs  uint64
	gcCPU      float64
	totalCPU   float64
}

var usageSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

// readUsage samples wall clock, process CPU and cumulative allocation.
func readUsage() usage {
	u := usage{wall: time.Now(), cpu: processCPU()}
	s := make([]metrics.Sample, len(usageSamples))
	copy(s, usageSamples)
	metrics.Read(s)
	u.allocBytes = s[0].Value.Uint64()
	u.allocObjs = s[1].Value.Uint64()
	u.gcCPU = s[2].Value.Float64()
	u.totalCPU = s[3].Value.Float64()
	return u
}

// window is the resource use between two usage readings.
type window struct {
	wall       time.Duration
	cpu        time.Duration
	allocBytes uint64
	allocObjs  uint64
	// gcFraction is the runtime's estimate of the share of the process's
	// available CPU time spent in the garbage collector.
	gcFraction float64
}

func (u usage) until(end usage) window {
	w := window{
		wall:       end.wall.Sub(u.wall),
		cpu:        end.cpu - u.cpu,
		allocBytes: end.allocBytes - u.allocBytes,
		allocObjs:  end.allocObjs - u.allocObjs,
	}
	if tot := end.totalCPU - u.totalCPU; tot > 0 {
		w.gcFraction = (end.gcCPU - u.gcCPU) / tot
	}
	return w
}

// processCPU returns the user+system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB returns the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for no samples. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted: the smallest sample with at least p% of samples at or below
// it. sorted must be in ascending order; 0 for no samples.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// quartiles returns the first and third quartiles of xs with the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), which
// is the rule the steadiness check is specified in. It needs at least
// two samples.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// latencies accumulates per-call durations in microseconds.
type latencies struct{ us []float64 }

func (l *latencies) add(d time.Duration) { l.us = append(l.us, float64(d)/1e3) }

func (l *latencies) merge(o *latencies) { l.us = append(l.us, o.us...) }

// summary returns the median, p99 and sample count.
func (l *latencies) summary() (p50, p99 float64, n int) {
	s := sortedCopy(l.us)
	return percentile(s, 50), percentile(s, 99), len(s)
}

func (l *latencies) total() float64 {
	var t float64
	for _, v := range l.us {
		t += v
	}
	return t
}
