// Command benchmark is the repository's end-to-end and per-layer
// benchmark. It drives the reproduction's public packages from outside
// — the DES trainer, the live TCP pipeline and the cache tier — on a
// seeded workload, checks that their outputs are correct, and prints
// every metric by name with its unit. The last line of standard output
// is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// An untraced run (-trace 0) reports the end-to-end metrics; a traced
// run (-trace 1) reports the per-layer metrics. See README.md for the
// workloads, the layer → metric → workload map and how to run it.
//
// Usage:
//
//	bash benchmark/run.sh --workload des-mlp --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh steady --runs 10 [--workloads des-mlp,live-mlp]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the gated metrics: every workload reports each of them
// on an untraced run, and BENCHMARK.json fixes the bound by which each
// may worsen.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"updates_per_ref_s", "1/s"},
	{"cpu_ref_ms_per_update", "ms"},
	{"alloc_kb_per_update", "KiB"},
	{"peak_rss_mb", "MiB"},
}

// workloadE2E are further end-to-end metrics, printed but not in the
// JSON result: the measured (unscaled) set-up time, throughput and CPU,
// which the machine's speed drift makes too noisy to gate, and metrics
// that apply to only some workloads, while the result must hold the
// same metric set for every workload.
var workloadE2E = []metricDef{
	{"setup_measured_s", "s"},
	{"updates_per_s", "1/s"},
	{"cpu_ms_per_update", "ms"},
	{"machine_slowdown", "ratio"},
	{"env_steps_per_s", "1/s"},
	{"final_reward", "reward"},
	{"cost_usd", "$"},
	{"virtual_s", "virtual_s"},
	{"op_p50_us", "us"},
	{"op_p99_us", "us"},
	{"error_fraction", "fraction"},
}

// workload is one seeded input set; BENCHMARK.json says why each exists.
type workload struct {
	name string
	run  func(o opts, rep *report) error
}

var workloads = []workload{
	{"des-mlp", runDESMLP},
	{"des-cnn", runDESCNN},
	{"live-mlp", runLive},
	{"cache-mix", runCacheMix},
}

// opts are the command-line settings of one run.
type opts struct {
	seed    uint64
	seconds float64
	trace   bool
	// traceFile is where the traced pass writes its spans.
	traceFile string
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		if err := steady(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark steady:", err)
			os.Exit(1)
		}
		return
	}
	name := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 20, "measurement time")
	trace := flag.Int("trace", 0, "1 = traced pass reporting per-layer metrics")
	outDir := flag.String("out", ".bench_build/trace", "directory for span files of traced runs")
	flag.BoolVar(&verbose, "v", false, "print every repeat to standard error")
	flag.Parse()

	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (have %s)\n", *name, workloadNames())
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	o := opts{seed: *seed, seconds: *seconds, trace: *trace == 1,
		traceFile: filepath.Join(*outDir, fmt.Sprintf("%s-seed%d.json", w.name, *seed))}
	fmt.Printf("workload %s seed %d seconds %g trace %d\n", w.name, o.seed, o.seconds, *trace)
	rep := newReport()
	if err := w.run(o, rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if !o.trace {
		rep.set("peak_rss_mb", "MiB", peakRSSMiB(), "process high-water mark")
	}
	if rep.attempted > 0 {
		rep.set("error_fraction", "fraction", float64(rep.failed)/float64(rep.attempted),
			fmt.Sprintf("%d failed of %d attempted", rep.failed, rep.attempted))
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	ok = rep.emit(os.Stdout, defs, o.trace)
	if !ok {
		os.Exit(1)
	}
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// report collects a run's metrics, output checks and operation counts.
type report struct {
	values    map[string]reported
	checks    []check
	attempted int64
	failed    int64
}

type reported struct {
	unit  string
	value float64
	note  string
}

type check struct {
	name   string
	ok     bool
	detail string
}

func newReport() *report { return &report{values: make(map[string]reported)} }

// set records a metric; note says how it was measured.
func (r *report) set(name, unit string, v float64, note string) {
	r.values[name] = reported{unit: unit, value: v, note: note}
}

// check records an output check; a failed check fails the run.
func (r *report) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, check{name: name, ok: ok, detail: fmt.Sprintf(format, args...)})
}

func (r *report) correct() bool {
	for _, c := range r.checks {
		if !c.ok {
			return false
		}
	}
	return len(r.checks) > 0
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// emit prints every metric and check, then the JSON result line holding
// exactly defs. A per-layer metric the workload does not exercise reads
// 0 and is marked n/a. It reports whether the run is correct.
func (r *report) emit(f *os.File, defs []metricDef, traced bool) bool {
	if !traced {
		for _, d := range append(append([]metricDef(nil), endToEnd...), workloadE2E...) {
			if v, ok := r.values[d.name]; ok {
				fmt.Fprintf(f, "metric %-22s %14.6g %-9s %s\n", d.name, v.value, d.unit, v.note)
			}
		}
	}
	res := jsonResult{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]jsonMetric, len(defs))}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Failed = 1
	}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if traced {
			if ok {
				fmt.Fprintf(f, "layer  %-40s %14.6g %-9s %s\n", d.name, v.value, d.unit, v.note)
			} else {
				fmt.Fprintf(f, "layer  %-40s %14s %-9s not exercised by this workload\n", d.name, "n/a", d.unit)
			}
		}
		val := v.value
		if math.IsNaN(val) || math.IsInf(val, 0) {
			val = 0
		}
		res.Metrics[d.name] = jsonMetric{Value: val, Unit: d.unit}
	}
	for _, c := range r.checks {
		status := "ok"
		if !c.ok {
			status = "FAIL"
		}
		fmt.Fprintf(f, "check  %-32s %-4s %s\n", c.name, status, c.detail)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: encoding result:", err)
		return false
	}
	fmt.Fprintln(f, string(line))
	return res.Correct
}

// verbose enables per-repeat diagnostics on standard error.
var verbose bool

func verbosef(format string, args ...any) {
	if verbose {
		fmt.Fprintf(os.Stderr, format, args...)
	}
}

// deadline returns the time a phase of d seconds starting now ends.
func deadline(d float64) time.Time {
	return time.Now().Add(time.Duration(d * float64(time.Second)))
}
