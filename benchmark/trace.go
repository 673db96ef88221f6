package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"stellaris/internal/env"
	"stellaris/internal/rng"
)

// span is one timed call recorded by the benchmark around a call into a
// layer: its name, interval (ns since the recorder's epoch), its own id
// and the id of the span that caused it (0 for a root).
type span struct {
	name       string
	id, parent int64
	start, end int64
}

// maxKeptSpans bounds the raw spans held for the trace file; per-name
// duration statistics keep counting past it.
const maxKeptSpans = 200_000

// recorder keeps spans in memory for the traced pass and writes them
// out when the run ends. It is safe for concurrent use.
type recorder struct {
	epoch  time.Time
	nextID atomic.Int64
	// parent is the span that env calls are attributed to (the enclosing
	// training run); set by the workload around each run.
	parent atomic.Int64

	mu      sync.Mutex
	spans   []span
	dropped int
	byName  map[string]*latencies
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), byName: make(map[string]*latencies)}
}

// record stores a finished span and returns its id.
func (r *recorder) record(name string, parent int64, start, end time.Time) int64 {
	id := r.nextID.Add(1)
	r.store(span{name: name, id: id, parent: parent,
		start: int64(start.Sub(r.epoch)), end: int64(end.Sub(r.epoch))})
	return id
}

func (r *recorder) store(s span) {
	r.mu.Lock()
	if len(r.spans) < maxKeptSpans {
		r.spans = append(r.spans, s)
	} else {
		r.dropped++
	}
	l := r.byName[s.name]
	if l == nil {
		l = &latencies{}
		r.byName[s.name] = l
	}
	l.add(time.Duration(s.end - s.start))
	r.mu.Unlock()
}

// open starts a span whose id is known before it ends, so calls made
// inside it can name it as their parent.
func (r *recorder) open(name string, parent int64) *openSpan {
	return &openSpan{r: r, name: name, id: r.nextID.Add(1), parent: parent, start: time.Now()}
}

type openSpan struct {
	r          *recorder
	name       string
	id, parent int64
	start      time.Time
}

func (o *openSpan) end() time.Duration {
	now := time.Now()
	o.r.store(span{name: o.name, id: o.id, parent: o.parent,
		start: int64(o.start.Sub(o.r.epoch)), end: int64(now.Sub(o.r.epoch))})
	return now.Sub(o.start)
}

// stats returns the recorded durations of one span name (nil if none).
func (r *recorder) stats(name string) *latencies {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.byName[name]
}

// writeChrome writes the kept spans as a Chrome trace-event JSON file
// (loadable in Perfetto), one complete event per span, with the span
// and parent ids in args.
func (r *recorder) writeChrome(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	r.mu.Lock()
	spans := r.spans
	dropped := r.dropped
	r.mu.Unlock()
	fmt.Fprintf(w, "{\"droppedSpans\":%d,\"traceEvents\":[", dropped)
	for i, s := range spans {
		if i > 0 {
			w.WriteByte(',')
		}
		name, _ := json.Marshal(s.name)
		fmt.Fprintf(w, "\n{\"name\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d}}",
			name, float64(s.start)/1e3, float64(s.end-s.start)/1e3, s.id, s.parent)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// envProbe counts environment steps for every env built through the
// benchmark's registered wrappers and, when a recorder is attached,
// records a span around each Step and Reset. Without a recorder the
// wrapper reads no clock.
type envProbe struct {
	steps atomic.Int64
	rec   atomic.Pointer[recorder]
}

// probedEnv wraps a vector-observation environment.
type probedEnv struct {
	env.Env
	p *envProbe
}

func (e *probedEnv) Step(action []float64) ([]float64, float64, bool) {
	e.p.steps.Add(1)
	rec := e.p.rec.Load()
	if rec == nil {
		return e.Env.Step(action)
	}
	t0 := time.Now()
	obs, rew, done := e.Env.Step(action)
	rec.record("env.step", rec.parent.Load(), t0, time.Now())
	return obs, rew, done
}

func (e *probedEnv) Reset(r *rng.RNG) []float64 {
	rec := e.p.rec.Load()
	if rec == nil {
		return e.Env.Reset(r)
	}
	t0 := time.Now()
	obs := e.Env.Reset(r)
	rec.record("env.reset", rec.parent.Load(), t0, time.Now())
	return obs
}

// probedFramedEnv wraps an image environment; it forwards FrameSize so
// the model builder still picks the CNN trunk.
type probedFramedEnv struct {
	*probedEnv
	size int
}

func (e *probedFramedEnv) FrameSize() int { return e.size }

// Registry names of the probed environments. The trainer and the live
// pipeline build environments by name, so registering wrappers is how
// the benchmark observes env calls without changing the program.
const (
	probedHopper   = "bench-hopper"
	probedInvaders = "bench-invaders"
	cnnFrame       = 20
)

// registerProbedEnvs installs the wrappers around p. Call once.
func registerProbedEnvs(p *envProbe) {
	env.Register(probedHopper, func() env.Env {
		return &probedEnv{Env: env.NewHopper(), p: p}
	})
	env.Register(probedInvaders, func() env.Env {
		inv := env.NewInvaders(cnnFrame)
		return &probedFramedEnv{probedEnv: &probedEnv{Env: inv, p: p}, size: inv.FrameSize()}
	})
}
