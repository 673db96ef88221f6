package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// spec is the part of BENCHMARK.json the steadiness check reads.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// steady runs each workload untraced once per seed, for the spec's
// run_seconds, and reports for every end-to-end metric the spread
// between the first and third quartiles as a share of the median,
// against the metric's bound from BENCHMARK.json, then the spreads of
// the printed, ungated metrics. It fails if a spread exceeds its bound,
// and flags spreads above a third of the bound.
func steady(args []string) error {
	fs := flag.NewFlagSet("steady", flag.ContinueOnError)
	runs := fs.Int("runs", 10, "runs per workload, each with the next seed")
	first := fs.Uint64("seed", 1, "seed of the first run")
	names := fs.String("workloads", "", "comma-separated workloads (default: all in the spec)")
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sp, err := loadSpec(*specPath)
	if err != nil {
		return err
	}
	var wls []string
	if *names != "" {
		wls = strings.Split(*names, ",")
	} else {
		for _, w := range sp.Workloads {
			wls = append(wls, w.Name)
		}
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	wide := false
	for _, w := range wls {
		values := map[string][]float64{}
		var printed []string // ungated metrics, in first-seen order
		for i := 0; i < *runs; i++ {
			seed := *first + uint64(i)
			res, text, err := runOnce(exe, w, seed, sp.RunSeconds)
			if err != nil {
				return err
			}
			var parts []string
			for _, m := range sp.EndToEnd {
				v := res.Metrics[m.Name].Value
				values[m.Name] = append(values[m.Name], v)
				parts = append(parts, fmt.Sprintf("%s=%.4g", m.Name, v))
			}
			for _, d := range workloadE2E {
				if v, ok := text[d.name]; ok {
					if i == 0 {
						printed = append(printed, d.name)
					}
					values[d.name] = append(values[d.name], v)
				}
			}
			fmt.Printf("%s seed %d: %s\n", w, seed, strings.Join(parts, " "))
		}
		for _, m := range sp.EndToEnd {
			xs := values[m.Name]
			med := median(xs)
			q1, q3 := quartiles(xs)
			spread := (q3 - q1) / med
			verdict := "steady"
			switch {
			case spread > m.Bound:
				verdict = "WIDER THAN BOUND"
				wide = true
			case spread > m.Bound/3:
				verdict = "above bound/3"
			}
			fmt.Printf("%-10s %-22s median %-12.5g spread %6.2f%% bound %5.1f%%  %s\n",
				w, m.Name, med, 100*spread, 100*m.Bound, verdict)
		}
		for _, name := range printed {
			xs := values[name]
			q1, q3 := quartiles(xs)
			fmt.Printf("%-10s %-22s median %-12.5g spread %6.2f%% (not gated)\n",
				w, name, median(xs), 100*(q3-q1)/median(xs))
		}
	}
	if wide {
		return fmt.Errorf("a spread exceeds its bound")
	}
	return nil
}

// runOnce runs one untraced benchmark process and parses its result
// line and its printed "metric" lines.
func runOnce(exe, workload string, seed uint64, seconds int) (*jsonResult, map[string]float64, error) {
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("%s seed %d: %w\n%s", workload, seed, err, out)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res jsonResult
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, nil, fmt.Errorf("%s seed %d: parsing result: %w", workload, seed, err)
	}
	if !res.Correct {
		return nil, nil, fmt.Errorf("%s seed %d: output checks failed\n%s", workload, seed, out)
	}
	text := map[string]float64{}
	for _, l := range lines {
		f := strings.Fields(string(l))
		if len(f) >= 3 && f[0] == "metric" {
			if v, err := strconv.ParseFloat(f[2], 64); err == nil {
				text[f[1]] = v
			}
		}
	}
	return &res, text, nil
}
