package main

import (
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"time"
)

// The 2-vCPU virtual machine this benchmark was tuned on shares its
// CPUs with other tenants. Each vCPU flips between full speed and about half speed every few
// tens of milliseconds (1 ms kernel slices read ~1.1 or ~2.2 ms), as
// the other half of its physical core is used or not, and the share of
// slow time drifts by tens of percent over minutes. So every run also
// times a fixed reference workload between its measured pieces of work,
// while nothing else of the run executes, and reports its throughput,
// CPU and set-up figures twice: as measured, and scaled to the
// reference's nominal speed. The scaled figures are the gated ones; the
// reference is the benchmark's own code, so no change to the program
// can move it.
//
// The measured work averages over thousands of speed flips, so the
// reference has to average over many too: after each piece of work it
// runs for refShare of that work's wall time, in short units, so that
// it sees as many flips, in proportion, wherever the run spends its
// time. With one 20 ms sample per piece of work instead, des-cnn's
// scaled throughput spread twice as much over ten seeds as its measured
// one (20% against 10%).
//
// The reference must also slow down as the workload does. Training is
// dominated by floating-point kernels, so the DES and live workloads
// time a matrix product. A busy sibling hyperthread slows such a kernel
// far more than it slows socket I/O and copying, which is what cache-mix
// does, so cache-mix times loopback TCP round trips instead: in five
// runs its scaled throughput spread 4% against 18% measured, where the
// matrix product had widened the spread (17% against 7%).

const (
	// refShare is the reference's time as a share of the wall time of
	// the work it follows. One 40 ms sample's mean unit time varies by
	// about 23% from the next, so a 24-second run needs a few seconds of
	// reference for its estimate to settle within a few percent.
	refShare = 0.25
	// minRefTime is the least reference time per sample.
	minRefTime = 20 * time.Millisecond
)

// Nominal times of one reference unit on the 2-vCPU development
// machine (go1.24, linux/amd64): the matrix product's median in a quiet
// period, and the low end of the echo's in a busy one.
const (
	matmulNominal = time.Millisecond
	echoNominal   = 700 * time.Microsecond
)

const (
	refN        = 96 // matrix side of the compute reference
	echoBytes   = 32 << 10
	echoPerUnit = 40 // round trips per echo unit
)

// speedProbe times a reference workload on one or more goroutines at
// once: one for a workload that loads one CPU, the CPU count for one
// that loads them all, since the CPUs of a shared machine can run at
// different speeds at the same moment.
type speedProbe struct {
	name    string
	unit    []func() error // one unit of the reference, per goroutine
	nominal time.Duration  // one unit's time at nominal speed
	stop    func()
	busy    time.Duration // summed over all units run
	units   int
	err     error
}

// newSpeedProbe returns a probe whose reference unit is a naive 96x96
// matrix product on buffers each goroutine owns.
func newSpeedProbe(width int) *speedProbe {
	p := &speedProbe{name: "matmul", nominal: matmulNominal, stop: func() {}}
	for w := 0; w < width; w++ {
		m := &matmulRef{
			a: make([]float64, refN*refN),
			b: make([]float64, refN*refN),
			c: make([]float64, refN*refN),
		}
		for i := range m.a {
			m.a[i] = float64(i%7) * 0.1
			m.b[i] = float64(i%5) * 0.2
		}
		p.unit = append(p.unit, m.run)
	}
	return p
}

// matmulRef is the compute reference. Its loop reads the matrices
// through the struct's fields: matmulNominal was calibrated on this
// form, and the compiler makes the same loop over closure-captured
// slices about 30% faster.
type matmulRef struct{ a, b, c []float64 }

func (m *matmulRef) run() error {
	for i := 0; i < refN; i++ {
		for j := 0; j < refN; j++ {
			var sum float64
			for k := 0; k < refN; k++ {
				sum += m.a[i*refN+k] * m.b[k*refN+j]
			}
			m.c[i*refN+j] = sum
		}
	}
	return nil
}

// newEchoProbe returns a probe whose reference unit is loopback TCP
// traffic: 40 round trips of a 32 KiB message through an echo
// goroutine, on one connection per goroutine. stop closes the
// connections and waits for the echo goroutines.
func newEchoProbe(width int) (*speedProbe, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var conns []net.Conn
	var wg sync.WaitGroup
	p := &speedProbe{name: "echo", nominal: echoNominal}
	p.stop = func() {
		ln.Close()
		for _, c := range conns {
			c.Close()
		}
		wg.Wait()
	}
	for w := 0; w < width; w++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			p.stop()
			return nil, err
		}
		conns = append(conns, c)
		s, err := ln.Accept()
		if err != nil {
			p.stop()
			return nil, err
		}
		conns = append(conns, s)
		wg.Add(1)
		go func() {
			defer wg.Done()
			io.Copy(s, s) // ends when stop closes the connection
		}()
		out, in := make([]byte, echoBytes), make([]byte, echoBytes)
		for i := range out {
			out[i] = byte(i)
		}
		p.unit = append(p.unit, func() error {
			for r := 0; r < echoPerUnit; r++ {
				if _, err := c.Write(out); err != nil {
					return err
				}
				if _, err := io.ReadFull(c, in); err != nil {
					return err
				}
			}
			return nil
		})
	}
	return p, nil
}

// sample runs the reference after a piece of measured work that took
// work wall time: for refShare of it (at least minRefTime), on each of
// the probe's goroutines at once. It first lets the work's leftovers
// finish — a garbage collection in progress, servers draining — so that
// the reference competes only with the machine's other tenants. The
// first error is kept in p.err.
func (p *speedProbe) sample(work time.Duration) {
	runtime.GC()
	time.Sleep(5 * time.Millisecond)
	d := max(time.Duration(refShare*float64(work)), minRefTime)
	busy := make([]time.Duration, len(p.unit))
	units := make([]int, len(p.unit))
	errs := make([]error, len(p.unit))
	var wg sync.WaitGroup
	for w := range p.unit {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			t0 := time.Now()
			until := t0.Add(d)
			for errs[w] == nil && (units[w] == 0 || time.Now().Before(until)) {
				errs[w] = p.unit[w]()
				units[w]++
			}
			busy[w] = time.Since(t0)
		}(w)
	}
	wg.Wait()
	for w := range p.unit {
		p.busy += busy[w]
		p.units += units[w]
		if p.err == nil && errs[w] != nil {
			p.err = fmt.Errorf("%s reference: %w", p.name, errs[w])
		}
	}
}

// slowdown is the reference's mean unit time over its nominal time:
// 1.25 means the machine ran 25% slower than nominal while the run
// measured.
func (p *speedProbe) slowdown() float64 {
	if p.units == 0 {
		return 1
	}
	return p.busy.Seconds() / float64(p.units) / p.nominal.Seconds()
}

// setScaled reports a run's measured throughput and CPU per update
// together with their reference-speed forms.
func setScaled(rep *report, p *speedProbe, ups, cpuMs float64, note string) {
	s := p.slowdown()
	rep.set("updates_per_s", "1/s", ups, note)
	rep.set("cpu_ms_per_update", "ms", cpuMs, note)
	scaled := fmt.Sprintf("at nominal machine speed (slowdown %.3f over %d reference units)", s, p.units)
	rep.set("updates_per_ref_s", "1/s", ups*s, scaled)
	rep.set("cpu_ref_ms_per_update", "ms", cpuMs/s, scaled)
	rep.set("machine_slowdown", "ratio", s, p.name+" reference mean unit time / nominal")
}

// setSetup reports a run's median set-up time at the reference's
// nominal speed, like the gated throughput and CPU figures, and as
// measured.
func setSetup(rep *report, p *speedProbe, setup float64, note string) {
	rep.set("setup_s", "s", setup/p.slowdown(), note+", at nominal machine speed")
	rep.set("setup_measured_s", "s", setup, note)
}
