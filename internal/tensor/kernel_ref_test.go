package tensor

import (
	"math"
	"testing"

	"stellaris/internal/rng"
)

// The reference kernels below are the straightforward loops the blocked
// kernels replaced, kept verbatim. The blocked kernels must agree with
// them bit for bit, not just to a tolerance: training runs are pinned to
// exact final-weight digests.

func refMatMul(dst, a, b *Mat) {
	dst.Zero()
	// ikj loop order: streams over b and dst rows for cache friendliness.
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for k := 0; k < a.Cols; k++ {
			aik := arow[k]
			if aik == 0 {
				continue
			}
			brow := b.Row(k)
			for j := range brow {
				drow[j] += aik * brow[j]
			}
		}
	}
}

func refMatMulATB(dst, a, b *Mat) {
	dst.Zero()
	for k := 0; k < a.Rows; k++ {
		arow := a.Row(k)
		brow := b.Row(k)
		for i, aki := range arow {
			if aki == 0 {
				continue
			}
			drow := dst.Row(i)
			for j := range brow {
				drow[j] += aki * brow[j]
			}
		}
	}
}

func refMatMulABT(dst, a, b *Mat) {
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for j := 0; j < b.Rows; j++ {
			drow[j] = Dot(arow, b.Row(j))
		}
	}
}

// kernelValue draws one matrix entry: exact +0 and -0, magnitudes from
// 1e-8 to 1e8 of either sign, and now and then a value so small that its
// products underflow to a signed zero.
func kernelValue(r *rng.RNG) float64 {
	sign := 1.0
	if r.Float64() < 0.5 {
		sign = -1
	}
	switch u := r.Float64(); {
	case u < 0.15:
		return 0
	case u < 0.25:
		return math.Copysign(0, -1)
	case u < 0.28:
		return sign * 1e-170 * (1 + r.Float64())
	default:
		return sign * math.Pow(10, 16*r.Float64()-8) * (1 + r.Float64())
	}
}

// kernelMat fills a rows x cols matrix with kernelValue entries, making
// some rows ReLU-like (negatives clamped to +0), some all zero and some
// zero in runs, so the kernels' zero-skipping paths all run.
func kernelMat(r *rng.RNG, rows, cols int) *Mat {
	m := NewMat(rows, cols)
	for i := 0; i < rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = kernelValue(r)
		}
		switch u := r.Float64(); {
		case u < 0.3:
			for j, v := range row {
				if v < 0 || (v == 0 && math.Signbit(v)) {
					row[j] = 0
				}
			}
		case u < 0.4:
			clear(row)
		case u < 0.55:
			start := r.Intn(cols)
			clear(row[start:min(cols, start+1+r.Intn(9))])
		}
	}
	return m
}

// kernelDim draws a dimension: mostly small, with many sizes that are
// not multiples of 4 and many 1s, and now and then one wider than the
// 256 columns MatMulATBAdd sums on the stack at a time.
func kernelDim(r *rng.RNG) int {
	switch u := r.Float64(); {
	case u < 0.15:
		return 1
	case u < 0.85:
		return 1 + r.Intn(19)
	case u < 0.95:
		return 20 + r.Intn(60)
	default:
		return 253 + r.Intn(512)
	}
}

func sameBits(t *testing.T, what string, trial int, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("trial %d: %s differs at %d: %v (%#x) vs reference %v (%#x)", trial, what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// garbage fills a destination the kernels must overwrite completely.
func garbage(m *Mat) *Mat {
	for i := range m.Data {
		m.Data[i] = math.NaN()
	}
	return m
}

func TestBlockedKernelsBitIdentical(t *testing.T) {
	r := rng.New(7)
	for trial := 0; trial < 300; trial++ {
		m, k, n := kernelDim(r), kernelDim(r), kernelDim(r)
		if m*k*n > 1<<18 {
			m = 1 + m%5 // keep one wide dimension, not three
		}

		a, b := kernelMat(r, m, k), kernelMat(r, k, n)
		got, want := garbage(NewMat(m, n)), NewMat(m, n)
		MatMul(got, a, b)
		refMatMul(want, a, b)
		sameBits(t, "MatMul", trial, got.Data, want.Data)

		bt := kernelMat(r, n, k)
		got = garbage(got)
		MatMulABT(got, a, bt)
		refMatMulABT(want, a, bt)
		sameBits(t, "MatMulABT", trial, got.Data, want.Data)

		// aᵀb with a k x m: the shapes of a weight gradient dOutᵀ·in.
		at, bk := kernelMat(r, k, m), kernelMat(r, k, n)
		got = garbage(got)
		MatMulATB(got, at, bk)
		refMatMulATB(want, at, bk)
		sameBits(t, "MatMulATB", trial, got.Data, want.Data)

		// Fused accumulation into a gradient that already holds earlier
		// minibatches must equal "scratch, then Axpy".
		acc := kernelMat(r, m, n)
		ref := acc.Clone()
		refMatMulATB(want, at, bk)
		Axpy(1, want.Data, ref.Data)
		MatMulATBAdd(acc, at, bk)
		sameBits(t, "MatMulATBAdd", trial, acc.Data, ref.Data)
	}
}
