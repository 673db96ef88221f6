package main

import (
	"testing"
	"time"

	"stellaris/internal/tensor"
)

// BENCHMARK.json and the program must name the same workloads and
// metrics, or a reader of the result line would look for metrics the
// program never prints.
func TestSpecMatchesProgram(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("spec has %d workloads, program %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range sp.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: spec %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	if len(sp.EndToEnd) != len(endToEnd) {
		t.Fatalf("spec has %d end-to-end metrics, program %d", len(sp.EndToEnd), len(endToEnd))
	}
	for i, m := range sp.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end %d: spec %s/%s, program %s/%s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	if len(sp.PerLayer) != len(perLayer) {
		t.Fatalf("spec has %d per-layer metrics, program %d", len(sp.PerLayer), len(perLayer))
	}
	for i, m := range sp.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer %d: spec %s/%s, program %s/%s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

func TestLadderMatchesMetricList(t *testing.T) {
	rungs := ladderRungs()
	if len(rungs) != len(ladderMetrics) {
		t.Fatalf("%d rungs, %d listed metrics", len(rungs), len(ladderMetrics))
	}
	for i, g := range rungs {
		if g.name != ladderMetrics[i].name || g.unit != ladderMetrics[i].unit {
			t.Errorf("rung %d is %s/%s, list says %s/%s", i, g.name, g.unit, ladderMetrics[i].name, ladderMetrics[i].unit)
		}
	}
}

func TestClassify(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"math.Tanh", "stellaris/internal/nn.(*Tanh).Forward", "stellaris/internal/algo.(*PPO).Compute"}, "nn"},
		{[]string{"runtime.mallocgc", "stellaris/internal/tensor.NewMat"}, "tensor"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime_gc"},
		{[]string{"stellaris/internal/cache/cluster.(*Ring).Shard", "stellaris/internal/cache.(*ShardedClient).Put"}, "cache"},
		{[]string{"stellaris/internal/obs/lineage.(*Store).Record"}, "other"},
		{[]string{"syscall.Syscall", "internal/poll.(*FD).Write"}, "other"},
	} {
		if got := classify(c.frames); got != c.want {
			t.Errorf("classify(%v) = %s, want %s", c.frames, got, c.want)
		}
	}
}

// A CPU profile of a tensor kernel loop charges its samples to the
// tensor layer.
func TestProfileAttribution(t *testing.T) {
	a, b, dst := tensor.NewMat(128, 128), tensor.NewMat(128, 128), tensor.NewMat(128, 128)
	prof, err := startProfile()
	if err != nil {
		t.Fatal(err)
	}
	for start := time.Now(); time.Since(start) < 500*time.Millisecond; {
		tensor.MatMul(dst, a, b)
	}
	shares, err := prof.stop()
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, l := range profLayers {
		sum += shares[l]
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("shares sum to %g: %v", sum, shares)
	}
	// Samples whose stack holds no program frame (the race detector's
	// runtime, the scheduler) are "other"; of the rest, a MatMul loop
	// must be charged to tensor alone.
	for _, l := range profLayers {
		if l != "tensor" && l != "other" && l != "runtime_gc" && shares[l] > 0 {
			t.Errorf("MatMul loop charged %g to %s: %v", shares[l], l, shares)
		}
	}
	if shares["tensor"] < 0.1 {
		t.Errorf("tensor share %g of a MatMul loop: %v", shares["tensor"], shares)
	}
}
