package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"
)

// weightsDigest hashes the exact bit patterns of a weight vector.
func weightsDigest(w []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, x := range w {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestPinnedFinalWeightDigests trains one fixed-seed DES run per network
// class (hopper on an MLP-64, invaders on the CNN) and compares the final
// weights' SHA-256 with constants. It is the oracle for changes that must
// not move a single bit of training, such as kernel rewrites: every
// tensor kernel the networks use (dense and conv forward and backward)
// runs inside it. A deliberate numerics change re-pins the constants and
// says so.
//
// Only amd64 is pinned: arm64, ppc64 and s390x let the Go compiler fuse
// s += a*b into a fused multiply-add, which rounds differently.
func TestPinnedFinalWeightDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are pinned for amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"hopper-mlp64", Config{
			Env: "hopper", Algo: "ppo", Seed: 11,
			Rounds: 1, UpdatesPerRound: 4, NumActors: 4, ActorSteps: 128, BatchSize: 1024, Hidden: 64,
			GPUs: 1, LearnersPerGPU: 4, LearningRate: 0.0002, Aggregator: AggStellaris,
		}, "cb36229af917f4de153c39ab740312c778f22a45a151343f643287bc1b69d180"},
		{"invaders-cnn", Config{
			Env: "invaders", FrameSize: 20, Algo: "ppo", Seed: 12,
			Rounds: 1, UpdatesPerRound: 2, NumActors: 4, ActorSteps: 32, BatchSize: 256, Hidden: 64,
			GPUs: 1, LearnersPerGPU: 4, LearningRate: 0.0002, Aggregator: AggStellaris,
		}, "dbd763df820cb7998131c8cb560621e697c5516c3ef287b81a31c7a52b28c692"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res := runCfg(t, c.cfg)
			if got := weightsDigest(res.FinalWeights); got != c.want {
				t.Fatalf("final-weight digest %s, pinned %s", got, c.want)
			}
		})
	}
}
