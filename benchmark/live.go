package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"stellaris/internal/cache"
	"stellaris/internal/live"
	"stellaris/internal/obs"
	"stellaris/internal/rng"
)

// Shape of the live-mlp workload: live.Train in async mode on hopper
// with an MLP-64 model, 1 actor and 2 learners, against one in-process
// TCP cache server the benchmark owns. Each repeat trains a fresh run
// for liveUpdates policy updates.
const (
	liveUpdates    = 100
	liveActorSteps = 64
)

// liveRun is one measured training run.
type liveRun struct {
	setup time.Duration
	win   window
	steps int64
	rep   *live.Report
	srv   *obs.Snapshot // server registry (traced runs only)
}

func liveOptions(addr string, seed uint64) live.Options {
	return live.Options{
		CacheAddr: addr, Env: probedHopper, Hidden: 64, Seed: seed,
		Actors: 1, Learners: 2, Updates: liveUpdates,
		ActorSteps: liveActorSteps, BatchSize: 128, LearningRate: 0.0002,
	}
}

// trainLive starts a fresh cache server and trains one run against it.
// The timed set-up spans the server start and live.Train's own start-up
// (dialing, model build, the initial weight publish) until version 0's
// head pointer reaches the server's store. With a recorder, the server
// and the pipeline are instrumented and the run is recorded as a span.
func trainLive(seed uint64, probe *envProbe, rec *recorder) (liveRun, error) {
	t0 := time.Now()
	store := cache.NewMemCache()
	srv := cache.NewServer(store)
	var srvReg, liveReg *obs.Registry
	if rec != nil {
		srvReg, liveReg = obs.NewRegistry(), obs.NewRegistry()
		srv.Instrument(srvReg)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return liveRun{}, err
	}
	defer srv.Close()

	opt := liveOptions(addr, seed)
	opt.Obs = liveReg
	var sp *openSpan
	if rec != nil {
		sp = rec.open("live.train", 0)
		rec.parent.Store(sp.id)
	}
	steps0 := probe.steps.Load()
	u0 := readUsage()
	setupCh := make(chan time.Duration, 1)
	done := make(chan struct{})
	go watchPublish(store, t0, setupCh, done)
	rep, err := live.Train(opt)
	close(done)
	setup, published := <-setupCh
	win := u0.until(readUsage())
	if sp != nil {
		sp.end()
	}
	if err != nil {
		return liveRun{}, fmt.Errorf("live run: %w", err)
	}
	if !published {
		return liveRun{}, fmt.Errorf("live run: initial weights never reached the server")
	}
	r := liveRun{setup: setup, win: win, steps: probe.steps.Load() - steps0, rep: rep}
	verbosef("live seed %d: %.3fs wall %.3fs cpu %d steps %d shed %.2f staleness\n", seed,
		win.wall.Seconds(), win.cpu.Seconds(), r.steps, rep.DroppedPayloads, rep.MeanStaleness)
	if srvReg != nil {
		r.srv = srvReg.Snapshot()
	}
	return r, nil
}

// watchPublish polls store until the weights head pointer appears and
// sends the time since t0; it closes ch without a value if done closes
// first.
func watchPublish(store *cache.MemCache, t0 time.Time, ch chan<- time.Duration, done <-chan struct{}) {
	defer close(ch)
	for {
		if _, err := store.Get(cache.KeyWeightsHead); err == nil {
			ch <- time.Since(t0)
			return
		}
		select {
		case <-done:
			return
		default:
			time.Sleep(20 * time.Microsecond)
		}
	}
}

// liveRuns repeats training runs until the deadline (at least min),
// running the reference after each run when speed is set.
func liveRuns(seeds *rng.RNG, probe *envProbe, speed *speedProbe, rec *recorder, until time.Time, min int) ([]liveRun, error) {
	var runs []liveRun
	for len(runs) < min || time.Now().Before(until) {
		r, err := trainLive(seeds.Uint64()>>16, probe, rec)
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
		if speed != nil {
			speed.sample(r.win.wall)
		}
	}
	return runs, nil
}

func liveRates(runs []liveRun) (ups, sps, cpuMs, allocKB, setups []float64) {
	for _, r := range runs {
		upd := float64(r.rep.Updates)
		ups = append(ups, upd/r.win.wall.Seconds())
		sps = append(sps, float64(r.steps)/r.win.wall.Seconds())
		cpuMs = append(cpuMs, r.win.cpu.Seconds()*1e3/upd)
		allocKB = append(allocKB, float64(r.win.allocBytes)/1024/upd)
		setups = append(setups, r.setup.Seconds())
	}
	return
}

// checkLive fails the run unless every run completed its updates with
// finite weights and no fault-recovery activity. Untraced runs have no
// per-reason drop counters, so a fault drop shows there as the cache
// retry or stale-weight reuse that precedes it; traced runs check the
// drop reasons directly.
func checkLive(rep *report, runs []liveRun) {
	complete, finite, healthy := true, true, true
	var completed int64
	for _, r := range runs {
		complete = complete && r.rep.Updates == liveUpdates
		completed += int64(r.rep.Updates)
		for _, x := range r.rep.FinalWeights {
			finite = finite && !math.IsNaN(x) && !math.IsInf(x, 0)
		}
		healthy = healthy && r.rep.CacheRetries == 0 && r.rep.CacheReconnects == 0 &&
			r.rep.CacheTimeouts == 0 && r.rep.StaleWeightReuses == 0
	}
	rep.attempted += int64(len(runs) * liveUpdates)
	rep.failed += int64(len(runs)*liveUpdates) - completed
	rep.check("updates-complete", complete, "%d runs x %d updates", len(runs), liveUpdates)
	rep.check("weights-finite", finite, "final weights contain no NaN/Inf")
	rep.check("no-fault-recovery", healthy, "zero cache retries/reconnects/timeouts and stale-weight reuses")
}

// runLive is the live-mlp workload.
func runLive(o opts, rep *report) error {
	probe := &envProbe{}
	registerProbedEnvs(probe)
	seeds := rng.New(o.seed)
	if o.trace {
		return traceLive(seeds, probe, o, rep)
	}
	speed := newSpeedProbe(runtime.GOMAXPROCS(0))
	runs, err := liveRuns(seeds, probe, speed, nil, deadline(o.seconds), 3)
	if err != nil {
		return err
	}
	ups, sps, cpuMs, allocKB, setups := liveRates(runs)
	n := fmt.Sprintf("median of %d runs x %d updates", len(runs), liveUpdates)
	setSetup(rep, speed, median(setups), fmt.Sprintf("median over %d runs of server start + live.Train start-up until weights v0 are published", len(setups)))
	setScaled(rep, speed, median(ups), median(cpuMs), n+"; CPU of the whole process incl. server")
	rep.set("env_steps_per_s", "1/s", median(sps), n)
	rep.set("alloc_kb_per_update", "KiB", median(allocKB), n)
	checkLive(rep, runs)
	return nil
}

// traceLive is the traced run of live-mlp.
func traceLive(seeds *rng.RNG, probe *envProbe, o opts, rep *report) error {
	base, err := liveRuns(seeds, probe, nil, nil, deadline(o.seconds*0.25), 2)
	if err != nil {
		return err
	}
	rec := newRecorder()
	probe.rec.Store(rec)
	prof, err := startProfile()
	if err != nil {
		return err
	}
	u0 := readUsage()
	runs, err := liveRuns(seeds, probe, nil, rec, deadline(o.seconds*0.35), 2)
	win := u0.until(readUsage())
	shares, perr := prof.stop()
	probe.rec.Store(nil)
	if err != nil {
		return err
	}
	if perr != nil {
		return perr
	}
	baseUps, _, _, _, _ := liveRates(base)
	trUps, _, _, _, _ := liveRates(runs)
	rep.set("trace.overhead_fraction", "fraction", 1-median(trUps)/median(baseUps),
		"1 - traced/untraced updates_per_s")
	setProfileShares(rep, shares, win)

	var updates, produced, steps int64
	var shed, faults, reuses, wire float64
	var staleSum, busy, elapsed float64
	for _, r := range runs {
		upd := int64(r.rep.Updates)
		updates += upd
		steps += r.steps
		produced += r.steps / liveActorSteps
		staleSum += r.rep.MeanStaleness * float64(upd)
		reuses += float64(r.rep.StaleWeightReuses)
		elapsed += r.win.wall.Seconds()
		lo := r.rep.Obs
		shed += counter(lo, "live_dropped_payloads_total", "reason", "backpressure")
		for _, reason := range []string{"put-failed", "decode-failed", "no-weights"} {
			faults += counter(lo, "live_dropped_payloads_total", "reason", reason)
		}
		wire += counter(r.srv, "cache_server_frame_bytes_total", "dir", "in") +
			counter(r.srv, "cache_server_frame_bytes_total", "dir", "out")
		for _, h := range r.srv.Histograms {
			if h.Name == "cache_server_op_seconds" {
				busy += h.Sum
			}
		}
	}
	u := float64(updates)
	rep.set("live.shed_fraction", "fraction", shed/float64(produced),
		"payloads shed under backpressure / trajectories produced")
	rep.set("live.trajectories_per_update", "count", float64(produced)/u, "trajectories produced per update")
	rep.set("live.mean_staleness", "versions", staleSum/u, "Report.MeanStaleness, update-weighted")
	rep.set("live.wire_bytes_per_update", "B", wire/u, "server frame bytes in+out per update")
	rep.set("live.server_busy_share", "fraction", busy/elapsed, "sum cache_server_op_seconds / elapsed")
	rep.set("live.fault_drops", "count", faults, "put-failed + decode-failed + no-weights drops")
	rep.set("live.stale_weight_reuses", "count", reuses, "iterations on a stale weight copy")
	rep.set("env.steps_per_update", "count", float64(steps)/u, "env steps per policy update")
	envTime := 0.0
	for _, name := range []string{"env.step", "env.reset"} {
		if l := rec.stats(name); l != nil {
			envTime += l.total()
		}
	}
	rep.set("env.self_share", "fraction", envTime/rec.stats("live.train").total(),
		"env span time / training run span time (actor goroutine)")

	checkLive(rep, append(base, runs...))
	rep.check("no-fault-drops", faults == 0, "%g put-failed/decode-failed/no-weights drops", faults)
	if err := rec.writeChrome(o.traceFile); err != nil {
		return err
	}
	runLadder(rep, deadline(o.seconds*0.4))
	return nil
}

// counter reads one labelled counter from a snapshot (0 when absent).
func counter(s *obs.Snapshot, name, label, value string) float64 {
	if s == nil {
		return 0
	}
	p, ok := s.Find(name, map[string]string{label: value})
	if !ok {
		return 0
	}
	return p.Value
}
