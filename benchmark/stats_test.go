package main

import (
	"runtime"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {100, 100}, {1, 1}, {0.1, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("single sample p99 = %g", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty p50 = %g", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g", got)
	}
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("even median = %g", got)
	}
	if xs[0] != 4 {
		t.Error("median reordered its input")
	}
}

// The steadiness rule is specified with Python's
// statistics.quantiles(values, n=4); these are its outputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3.5, 1.25, 9, 4}, 1.8125, 7.75},
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{5, 1, 4, 2, 3, 9, 8, 7, 6}, 2.5, 7.5},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestLatencySummary(t *testing.T) {
	var l latencies
	for i := 1000; i >= 1; i-- {
		l.add(time.Duration(i) * time.Microsecond)
	}
	p50, p99, n := l.summary()
	if p50 != 500 || p99 != 990 || n != 1000 {
		t.Errorf("summary = %g, %g, %d", p50, p99, n)
	}
	if l.total() != 500500 {
		t.Errorf("total = %g", l.total())
	}
}

var spin float64

func TestCPUAccounting(t *testing.T) {
	u0 := readUsage()
	for time.Since(u0.wall) < 200*time.Millisecond {
		for i := 0; i < 1000; i++ {
			spin += float64(i) * 1e-9
		}
	}
	w := u0.until(readUsage())
	// A busy loop on one goroutine uses about one CPU for the window;
	// the process cannot use more than every CPU for all of it.
	if w.cpu < w.wall/2 {
		t.Errorf("busy %v wall used only %v CPU", w.wall, w.cpu)
	}
	if limit := w.wall*time.Duration(runtime.NumCPU()) + 20*time.Millisecond; w.cpu > limit {
		t.Errorf("%v CPU in %v wall exceeds %d CPUs", w.cpu, w.wall, runtime.NumCPU())
	}
}

var sink [][]byte

// The runtime counts a small allocation only when its cache span is
// handed back, so the test allocates large objects, which are counted
// at once.
func TestAllocAccounting(t *testing.T) {
	const n, size = 200, 64 << 10
	u0 := readUsage()
	for i := 0; i < n; i++ {
		sink = append(sink, make([]byte, size))
	}
	w := u0.until(readUsage())
	if w.allocBytes < n*size {
		t.Errorf("allocated %d KiB, counted %d bytes", n*size/1024, w.allocBytes)
	}
	if w.allocObjs < n {
		t.Errorf("allocated %d objects, counted %d", n, w.allocObjs)
	}
	sink = nil
}

func TestPeakRSS(t *testing.T) {
	if rss := peakRSSMiB(); rss <= 0 {
		t.Errorf("peak RSS %g MiB", rss)
	}
}

func TestSlowdownIsMeanOverNominal(t *testing.T) {
	p := newSpeedProbe(2)
	if p.slowdown() != 1 {
		t.Errorf("no samples: slowdown %g, want 1", p.slowdown())
	}
	p.sample(0)
	// Each goroutine runs units for at least minRefTime.
	if p.units < 2 || p.busy < 2*minRefTime {
		t.Fatalf("one sample recorded as %d units in %v", p.units, p.busy)
	}
	p.busy, p.units = 5*matmulNominal, 2
	if got := p.slowdown(); got != 2.5 {
		t.Errorf("slowdown = %g, want 2.5", got)
	}
}

// The echo reference samples every connection without error; stop
// waits for its echo goroutines, and a later sample reports the closed
// connections.
func TestEchoProbe(t *testing.T) {
	p, err := newEchoProbe(2)
	if err != nil {
		t.Fatal(err)
	}
	p.sample(0)
	p.stop()
	if p.err != nil || p.units < 2 || p.busy <= 0 {
		t.Errorf("sample: err %v, %d units in %v", p.err, p.units, p.busy)
	}
	p.sample(0)
	if p.err == nil {
		t.Error("sampling after stop reported no error")
	}
}
