package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"time"

	"stellaris/internal/core"
	"stellaris/internal/rng"
)

// desSpec is one DES workload: the small preset of the figure harness
// (internal/bench's baseConfig at scale "small": 8 actors, 1 GPU x 4
// learner slots, 8 updates per round, hidden 64, frame 20, lr 2e-4) cut
// to a round or two, so that one run trains several seeds.
type desSpec struct {
	probedEnv, plainEnv string
	batch, actorSteps   int
	rounds              int
	// seeds is how many training seeds one pass trains. Per-update work
	// differs between training seeds (episode lengths, aggregation group
	// sizes), so the end-to-end figures pool several. des-cnn's seeds
	// differ more (25 to 41 learner invocations per 8 updates) and cost
	// more each, so it pools twice as many seeds of one round each, and
	// one pass of it fills a run.
	seeds int
}

var (
	desMLP = desSpec{probedEnv: probedHopper, plainEnv: "hopper", batch: 512, actorSteps: 128, rounds: 2, seeds: 8}
	desCNN = desSpec{probedEnv: probedInvaders, plainEnv: "invaders", batch: 128, actorSteps: 64, rounds: 1, seeds: 16}
)

const desUpdatesPerRound = 8

func (s desSpec) updates() int { return s.rounds * desUpdatesPerRound }

func (s desSpec) config(envName string, seed uint64) core.Config {
	return core.Config{
		Env: envName, FrameSize: cnnFrame, Algo: "ppo", Seed: seed,
		Rounds: s.rounds, UpdatesPerRound: desUpdatesPerRound, EvalWindow: 64,
		NumActors: 8, ActorSteps: s.actorSteps, BatchSize: s.batch, Hidden: 64,
		GPUs: 1, LearnersPerGPU: 4, LearningRate: 0.0002,
		Aggregator: core.AggStellaris,
	}
}

// trainingSeed returns the i-th training seed derived from a run's seed.
func trainingSeed(runSeed uint64, i int) uint64 {
	return rng.New(runSeed).Split(uint64(i)).Uint64() >> 16
}

// desRun is one measured training run.
type desRun struct {
	seed   uint64
	setup  time.Duration
	win    window
	steps  int64
	res    *core.Result
	digest string
}

// trainDES builds and runs one trainer, timing set-up (NewTrainer) and
// training (Run) separately.
func trainDES(cfg core.Config, probe *envProbe) (desRun, error) {
	t0 := time.Now()
	tr, err := core.NewTrainer(cfg)
	if err != nil {
		return desRun{}, err
	}
	setup := time.Since(t0)
	steps0 := probe.steps.Load()
	u0 := readUsage()
	res, err := tr.Run()
	if err != nil {
		return desRun{}, err
	}
	win := u0.until(readUsage())
	r := desRun{seed: cfg.Seed, setup: setup, win: win, steps: probe.steps.Load() - steps0,
		res: res, digest: weightsDigest(res.FinalWeights)}
	verbosef("des seed %d: %.3fs wall %.3fs cpu %d steps %d invocations %d KiB %s\n", cfg.Seed,
		win.wall.Seconds(), win.cpu.Seconds(), r.steps, res.LearnerInvocations, win.allocBytes/1024, r.digest)
	return r, nil
}

// weightsDigest is a short hash of a weight vector's exact bit patterns.
func weightsDigest(w []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, x := range w {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:12]
}

// desPasses trains the spec's training seeds in passes until the
// deadline, and at least once, running the reference after each run
// when speed is set. around wraps each run (the traced
// pass records a span around it). Runs are grouped by pass.
func desPasses(s desSpec, runSeed uint64, probe *envProbe, speed *speedProbe, until time.Time,
	around func(run func() (desRun, error)) (desRun, error)) ([][]desRun, error) {
	var passes [][]desRun
	var last time.Duration
	// After the first, a pass starts only if one as long as the last
	// still ends before the deadline.
	for len(passes) == 0 || !time.Now().Add(last).After(until) {
		start := time.Now()
		pass := make([]desRun, 0, s.seeds)
		for i := 0; i < s.seeds; i++ {
			cfg := s.config(s.probedEnv, trainingSeed(runSeed, i))
			r, err := around(func() (desRun, error) { return trainDES(cfg, probe) })
			if err != nil {
				return nil, err
			}
			pass = append(pass, r)
			if speed != nil {
				speed.sample(r.win.wall)
			}
		}
		passes = append(passes, pass)
		last = time.Since(start)
	}
	return passes, nil
}

func direct(run func() (desRun, error)) (desRun, error) { return run() }

// desTotals pools training runs.
type desTotals struct {
	wall, cpu time.Duration
	alloc     uint64
	steps     int64
	updates   int
}

func (s desSpec) pool(passes [][]desRun) desTotals {
	var t desTotals
	for _, pass := range passes {
		for _, r := range pass {
			t.wall += r.win.wall
			t.cpu += r.win.cpu
			t.alloc += r.win.allocBytes
			t.steps += r.steps
			t.updates += s.updates()
		}
	}
	return t
}

func (t desTotals) updatesPerSec() float64 { return float64(t.updates) / t.wall.Seconds() }

func runDESMLP(o opts, rep *report) error { return runDES(desMLP, o, rep) }
func runDESCNN(o opts, rep *report) error { return runDES(desCNN, o, rep) }

// runDES is the des-mlp / des-cnn workload.
func runDES(s desSpec, o opts, rep *report) error {
	probe := &envProbe{}
	registerProbedEnvs(probe)
	if o.trace {
		return traceDES(s, probe, o, rep)
	}

	speed := newSpeedProbe(1)
	passes, err := desPasses(s, o.seed, probe, speed, deadline(o.seconds), direct)
	if err != nil {
		return err
	}
	t := s.pool(passes)
	var setups []float64
	for _, pass := range passes {
		for _, r := range pass {
			setups = append(setups, r.setup.Seconds())
		}
	}
	n := fmt.Sprintf("pooled over %d passes x %d training seeds x %d updates", len(passes), s.seeds, s.updates())
	u := float64(t.updates)
	setSetup(rep, speed, median(setups), fmt.Sprintf("median NewTrainer time over %d runs", len(setups)))
	setScaled(rep, speed, t.updatesPerSec(), t.cpu.Seconds()*1e3/u, n)
	rep.set("env_steps_per_s", "1/s", float64(t.steps)/t.wall.Seconds(), n)
	rep.set("alloc_kb_per_update", "KiB", float64(t.alloc)/1024/u, n)

	first := passes[0]
	var reward, cost, virt float64
	for _, r := range first {
		reward += r.res.FinalReward
		cost += r.res.TotalCostUSD
		virt += r.res.WallSec
	}
	k := float64(len(first))
	rep.set("final_reward", "reward", reward/k, "mean over seeds; deterministic per seed")
	rep.set("cost_usd", "$", cost/k, "mean over seeds; paper's cost model, virtual")
	rep.set("virtual_s", "virtual_s", virt/k, "mean over seeds; simulated seconds")

	// A repeat of the first seed and every later pass must reproduce the
	// first pass's weights, and so must a run on the plain registry
	// environment (no counting wrapper).
	repeat, err := trainDES(s.config(s.probedEnv, first[0].seed), probe)
	if err != nil {
		return err
	}
	again := []desRun{repeat}
	for _, pass := range passes[1:] {
		again = append(again, pass...)
	}
	checkDigests(rep, first, again, "digest-repeat")
	plain, err := trainDES(s.config(s.plainEnv, first[0].seed), probe)
	if err != nil {
		return err
	}
	rep.check("digest-env-wrapper", plain.digest == first[0].digest,
		"plain %s %s vs counted %s", s.plainEnv, plain.digest, first[0].digest)
	all := append([]desRun(nil), again...)
	all = append(all, first...)
	rep.attempted = int64((len(all) + 1) * s.updates())
	checkRuns(rep, s, all)
	return nil
}

// checkDigests fails the run unless every run in again ends with the
// same weights as the run of the same seed in runs.
func checkDigests(rep *report, runs, again []desRun, name string) {
	want := make(map[uint64]string, len(runs))
	for _, r := range runs {
		want[r.seed] = r.digest
	}
	ok := len(again) > 0
	for _, r := range again {
		ok = ok && want[r.seed] == r.digest
	}
	rep.check(name, ok, "%d re-trained seeds bit-identical (first %s)", len(again), runs[0].digest)
}

// checkRuns requires that every run completed its rounds, stepped its
// environments and ended with finite weights.
func checkRuns(rep *report, s desSpec, runs []desRun) {
	complete, finite := true, true
	for _, r := range runs {
		complete = complete && r.steps > 0 && len(r.res.Rounds.Rows) == s.rounds
		for _, x := range r.res.FinalWeights {
			finite = finite && !math.IsNaN(x) && !math.IsInf(x, 0)
		}
	}
	rep.check("updates-complete", complete, "%d runs x %d rounds of %d updates", len(runs), s.rounds, desUpdatesPerRound)
	rep.check("weights-finite", finite, "final weights contain no NaN/Inf")
}

// traceDES is the traced run: an untraced phase for the overhead
// baseline, a traced phase over the same seeds (env spans, per-run
// spans, CPU profile), then the layer micro-call ladder.
func traceDES(s desSpec, probe *envProbe, o opts, rep *report) error {
	basePasses, err := desPasses(s, o.seed, probe, nil, deadline(o.seconds*0.25), direct)
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
	tracedPasses, err := desPasses(s, o.seed, probe, nil, deadline(o.seconds*0.35),
		func(run func() (desRun, error)) (desRun, error) {
			sp := rec.open("des.run", 0)
			rec.parent.Store(sp.id)
			r, err := run()
			sp.end()
			return r, err
		})
	win := u0.until(readUsage())
	shares, perr := prof.stop()
	probe.rec.Store(nil)
	if err != nil {
		return err
	}
	if perr != nil {
		return perr
	}
	var runs []desRun
	for _, pass := range tracedPasses {
		runs = append(runs, pass...)
	}
	rep.attempted = int64((len(basePasses) + len(tracedPasses)) * s.seeds * s.updates())
	base, traced := s.pool(basePasses), s.pool(tracedPasses)
	rep.set("trace.overhead_fraction", "fraction", 1-traced.updatesPerSec()/base.updatesPerSec(),
		"1 - traced/untraced updates_per_s over the same seeds")
	setProfileShares(rep, shares, win)

	var aggregated, invocations, cold int
	var staleSum, util float64
	var steps int64
	for _, r := range runs {
		aggregated += r.res.Staleness.Total()
		staleSum += r.res.Staleness.Mean() * float64(r.res.Staleness.Total())
		invocations += r.res.LearnerInvocations
		cold += r.res.ColdStarts
		util += r.res.LearnerUtilization
		steps += r.steps
	}
	n := float64(len(runs))
	updates := n * float64(s.updates())
	rep.set("stale.aggregated_fraction", "fraction", float64(aggregated)/float64(invocations),
		"gradients aggregated / learner invocations")
	rep.set("stale.mean_staleness", "versions", staleSum/float64(aggregated), "mean staleness of aggregated gradients")
	rep.set("core.learner_utilization", "fraction", util/n, "busy share of learner slots (virtual time)")
	rep.set("core.invocations_per_update", "count", float64(invocations)/updates, "learner invocations per update")
	rep.set("core.cold_starts", "count", float64(cold)/n, "cold starts per training run")
	rep.set("env.steps_per_update", "count", float64(steps)/updates, "env steps per policy update")
	envTime := 0.0
	for _, name := range []string{"env.step", "env.reset"} {
		if l := rec.stats(name); l != nil {
			envTime += l.total()
		}
	}
	rep.set("env.self_share", "fraction", envTime/rec.stats("des.run").total(),
		"env span time / training run span time")

	checkDigests(rep, basePasses[0], runs, "digest-traced-vs-untraced")
	checkRuns(rep, s, runs)
	if err := rec.writeChrome(o.traceFile); err != nil {
		return err
	}
	runLadder(rep, deadline(o.seconds*0.4))
	return nil
}
