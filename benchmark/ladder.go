package main

import (
	"fmt"
	"time"

	"stellaris/internal/algo"
	"stellaris/internal/cache"
	"stellaris/internal/env"
	"stellaris/internal/obs/lineage"
	"stellaris/internal/optim"
	"stellaris/internal/replay"
	"stellaris/internal/rng"
	"stellaris/internal/stale"
	"stellaris/internal/tensor"

	"stellaris/benchmark/simload"
)

// rung is one layer micro-call, timed from outside at a workload's
// shapes. Each sample times batch consecutive calls; pre, when set, runs
// untimed before each call (e.g. the forward pass a backward needs).
// Figures are per unit of work: per call, or per event when one call
// performs units events.
type rung struct {
	name  string // metric stem, e.g. "tensor.matmul.mlp"
	unit  string // "ns", "us" or "ms"
	batch int
	units int
	pre   func()
	call  func()
}

var unitScale = map[string]float64{"ns": 1, "us": 1e3, "ms": 1e6}

// rolloutTraj rolls out steps transitions of e under m's sampling
// policy — the payload an actor puts and a learner trains on.
func rolloutTraj(e env.Env, m *algo.Model, steps int, r *rng.RNG) *replay.Trajectory {
	traj := &replay.Trajectory{}
	obs := e.Reset(r)
	for i := 0; i < steps; i++ {
		a, lp, dp := m.Act(obs, r)
		next, rew, done := e.Step(a)
		traj.Steps = append(traj.Steps, replay.Step{
			Obs: obs, Action: a, Reward: rew, Done: done, LogProb: lp, DistParams: dp,
		})
		if done {
			traj.EpisodeReturns = append(traj.EpisodeReturns, rew)
			obs = e.Reset(r)
		} else {
			obs = next
		}
	}
	return traj
}

func randMat(rows, cols int, r *rng.RNG) *tensor.Mat {
	m := tensor.NewMat(rows, cols)
	for i := range m.Data {
		m.Data[i] = r.NormFloat64()
	}
	return m
}

func randVec(n int, r *rng.RNG) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = r.NormFloat64()
	}
	return v
}

// ladderRungs builds the micro-calls at the workloads' shapes: the
// hidden Dense layer of the MLP-64 trunk at PPO minibatch 512 (des-mlp,
// live-mlp), the first conv layer of the CNN trunk on a 3x20x20 frame
// stack (des-cnn), and the 10,311-parameter hopper model's payloads.
func ladderRungs() []rung {
	r := rng.New(7)
	var rungs []rung
	add := func(name, unit string, batch int, pre, call func()) {
		rungs = append(rungs, rung{name: name, unit: unit, batch: batch, units: 1, pre: pre, call: call})
	}

	// tensor: Dense(64->64) at batch 512, and conv1 (16@8x8s4 over 3x20x20,
	// 16 positions x 192-wide patches) per sample.
	const mb, h = 512, 64
	a, b, dst := randMat(mb, h, r), randMat(h, h, r), tensor.NewMat(mb, h)
	atbB, atbDst := randMat(mb, h, r), tensor.NewMat(h, h)
	add("tensor.matmul.mlp", "ns", 1, nil, func() { tensor.MatMul(dst, a, b) })
	add("tensor.matmul_abt.mlp", "ns", 1, nil, func() { tensor.MatMulABT(dst, a, b) })
	add("tensor.matmul_atb.mlp", "ns", 1, nil, func() { tensor.MatMulATB(atbDst, a, atbB) })
	conv := tensor.ConvShape{InC: 3, InH: cnnFrame, InW: cnnFrame, OutC: 16, KH: 8, KW: 8, Stride: 4}
	if err := conv.Validate(); err != nil {
		panic(err)
	}
	pos, patch := conv.OutH*conv.OutW, conv.PatchSize()
	cols, w := randMat(pos, patch, r), randMat(conv.OutC, patch, r)
	res, dRes := tensor.NewMat(pos, conv.OutC), randMat(pos, conv.OutC, r)
	dW, dCols := tensor.NewMat(conv.OutC, patch), tensor.NewMat(pos, patch)
	frame, dFrame := randVec(conv.InSize(), r), make([]float64, conv.InSize())
	add("tensor.matmul.cnn", "ns", 16, nil, func() { tensor.MatMul(dCols, dRes, w) })
	add("tensor.matmul_abt.cnn", "ns", 16, nil, func() { tensor.MatMulABT(res, cols, w) })
	add("tensor.matmul_atb.cnn", "ns", 16, nil, func() { tensor.MatMulATB(dW, dRes, cols) })
	add("tensor.im2col.cnn", "ns", 16, nil, func() { conv.Im2Col(cols, frame) })
	add("tensor.col2im.cnn", "ns", 16, nil, func() { conv.Col2Im(dFrame, dCols) })

	// nn / algo / optim on the real models.
	hopper, invaders := env.NewHopper(), env.NewInvaders(cnnFrame)
	mlp := algo.NewModelHidden(hopper, 64, 11)
	cnn := algo.NewModelHidden(invaders, 64, 12)
	mlpTraj := rolloutTraj(hopper, mlp, 512, r)
	cnnTraj := rolloutTraj(invaders, cnn, 128, r)
	mlpObs := randMat(512, hopper.ObsDim(), r)
	cnnObs := randMat(128, invaders.ObsDim(), r)
	mlpOut := randMat(512, mlp.Policy.OutDim(), r)
	cnnOut := randMat(128, cnn.Policy.OutDim(), r)
	add("nn.forward.mlp", "us", 1, nil, func() { mlp.Policy.Forward(mlpObs) })
	add("nn.backward.mlp", "us", 1, func() { mlp.Policy.Forward(mlpObs) }, func() { mlp.Policy.Backward(mlpOut) })
	add("nn.forward.cnn", "us", 1, nil, func() { cnn.Policy.Forward(cnnObs) })
	add("nn.backward.cnn", "us", 1, func() { cnn.Policy.Forward(cnnObs) }, func() { cnn.Policy.Backward(cnnOut) })

	trunc := algo.Truncation{Enabled: true, GroupMin: 1, Rho: 1}
	ppoMLP, ppoCNN := algo.NewPPO(true), algo.NewPPO(false)
	mlpBatch, err := replay.Flatten([]*replay.Trajectory{mlpTraj})
	if err != nil {
		panic(err)
	}
	cnnBatch, err := replay.Flatten([]*replay.Trajectory{cnnTraj})
	if err != nil {
		panic(err)
	}
	cr := rng.New(8)
	add("algo.compute.mlp", "ms", 1, nil, func() { ppoMLP.Compute(mlp, mlpBatch, trunc, algo.Extra{}, cr) })
	add("algo.compute.cnn", "ms", 1, nil, func() { ppoCNN.Compute(cnn, cnnBatch, trunc, algo.Extra{}, cr) })
	hObs, iObs := mlpTraj.Steps[0].Obs, cnnTraj.Steps[0].Obs
	add("algo.act.mlp", "us", 16, nil, func() { mlp.Act(hObs, cr) })
	add("algo.act.cnn", "us", 4, nil, func() { cnn.Act(iObs, cr) })

	params := mlp.Weights()
	grad := randVec(len(params), r)
	for i := range grad {
		grad[i] *= 1e-3
	}
	adam := optim.NewAdam(0.0002)
	add("optim.step.mlp", "us", 4, nil, func() { adam.Step(params, grad) })

	// env: one step, resetting finished episodes inside the sample.
	stepper := func(e env.Env) func() {
		sr := rng.New(9)
		as := e.ActionSpace()
		act := make([]float64, max(as.Dim, 1))
		e.Reset(sr)
		return func() {
			if as.Continuous {
				for i := range act {
					act[i] = 2*sr.Float64() - 1
				}
			} else {
				act[0] = float64(sr.Intn(as.N))
			}
			if _, _, done := e.Step(act); done {
				e.Reset(sr)
			}
		}
	}
	add("env.step.hopper", "ns", 64, nil, stepper(env.NewHopper()))
	add("env.step.invaders", "ns", 16, nil, stepper(env.NewInvaders(cnnFrame)))

	// cache codec and delta at live-mlp shapes: a 64-step hopper
	// trajectory and 10,311-parameter gradients and weight deltas.
	traj := &replay.Trajectory{Steps: mlpTraj.Steps[:64], Trace: lineage.Meta{ID: "traj/0/0", Kind: lineage.KindTrajectory}}
	trajBytes := mustEncode(cache.EncodeTrajectory(traj))
	gm := &cache.GradMsg{LearnerID: 1, BornVersion: 3, Grad: grad, Samples: 128,
		Trace: lineage.Meta{ID: "grad/0/0", Kind: lineage.KindGradient}}
	gradBytes := mustEncode(cache.EncodeGrad(gm))
	next := append([]float64(nil), params...)
	for i := range next {
		next[i] += grad[i]
	}
	delta, err := cache.BuildDelta(2, 1, params, next)
	if err != nil {
		panic(err)
	}
	applied := append([]float64(nil), params...)
	add("cache.encode_traj", "us", 4, nil, func() { cache.Recycle(mustEncode(cache.EncodeTrajectory(traj))) })
	add("cache.decode_traj", "us", 4, nil, func() { mustDecode(cache.DecodeTrajectory(trajBytes)) })
	add("cache.encode_grad", "us", 4, nil, func() { cache.Recycle(mustEncode(cache.EncodeGrad(gm))) })
	add("cache.decode_grad", "us", 4, nil, func() { mustDecode(cache.DecodeGrad(gradBytes)) })
	add("cache.build_delta", "us", 4, nil, func() { mustDecode(cache.BuildDelta(2, 1, params, next)) })
	add("cache.apply_delta", "us", 4, nil, func() {
		if err := delta.Apply(applied); err != nil {
			panic(err)
		}
	})

	// stale: one update's aggregation of two learners' gradients.
	pol := stale.NewStellaris()
	group := []*stale.Entry{
		{LearnerID: 0, BornVersion: 9, Grad: grad, Samples: 128},
		{LearnerID: 1, BornVersion: 8, Grad: next, Samples: 128},
	}
	add("stale.combine", "us", 4, nil, func() { stale.Combine(pol, group, 10) })

	// simclock: schedule and fire simclockEvents events; reported per event.
	add("simclock.event", "ns", 1, nil, func() { simload.FireEvents(simclockEvents) })
	rungs[len(rungs)-1].units = simclockEvents
	return rungs
}

// simclockEvents is how many events one simclock.event call fires.
const simclockEvents = 1024

func mustEncode(b []byte, err error) []byte {
	if err != nil {
		panic(err)
	}
	return b
}

func mustDecode[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// runLadder times every rung until the ladder's deadline, sharing the
// time equally, and reports median and p99 per call.
func runLadder(rep *report, until time.Time) {
	rungs := ladderRungs()
	for i, g := range rungs {
		left := time.Until(until) / time.Duration(len(rungs)-i)
		stop := time.Now().Add(left)
		calls := float64(g.batch * g.units)
		var samples latencies
		// Warm-up: grow buffers and fill caches before timing.
		for j := 0; j < 2; j++ {
			if g.pre != nil {
				g.pre()
			}
			g.call()
		}
		u0 := readUsage()
		for len(samples.us) < 20 || (time.Now().Before(stop) && len(samples.us) < 5000) {
			if g.pre != nil {
				g.pre()
			}
			t0 := time.Now()
			for k := 0; k < g.batch; k++ {
				g.call()
			}
			samples.add(time.Since(t0))
		}
		objs := u0.until(readUsage()).allocObjs
		p50, p99, n := samples.summary()
		scale := 1e3 / unitScale[g.unit] / calls // us per sample → unit per call
		note := fmt.Sprintf("%d samples of %g calls, %.1f allocs/call", n, calls, float64(objs)/(float64(n)*calls))
		if g.pre != nil {
			note += " (allocs include the untimed forward)"
		}
		rep.set(g.name+"."+g.unit, g.unit, p50*scale, "median; "+note)
		rep.set(g.name+".p99_"+g.unit, g.unit, p99*scale, "p99 per call")
	}
}
