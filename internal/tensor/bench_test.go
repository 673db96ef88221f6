package tensor

import (
	"testing"

	"stellaris/internal/rng"
)

func benchMats(n int) (*Mat, *Mat, *Mat) {
	r := rng.New(1)
	a, b := randMat(r, n, n), randMat(r, n, n)
	return NewMat(n, n), a, b
}

func BenchmarkMatMul64(b *testing.B) {
	dst, x, y := benchMats(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(dst, x, y)
	}
}

func BenchmarkMatMul256(b *testing.B) {
	dst, x, y := benchMats(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(dst, x, y)
	}
}

func BenchmarkMatMulABT256(b *testing.B) {
	dst, x, y := benchMats(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulABT(dst, x, y)
	}
}

func BenchmarkIm2Col44(b *testing.B) {
	s := ConvShape{InC: 3, InH: 44, InW: 44, OutC: 16, KH: 8, KW: 8, Stride: 4}
	if err := s.Validate(); err != nil {
		b.Fatal(err)
	}
	input := make([]float64, s.InSize())
	cols := NewMat(s.OutH*s.OutW, s.PatchSize())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Im2Col(cols, input)
	}
}

func BenchmarkDot4096(b *testing.B) {
	r := rng.New(2)
	x := make([]float64, 4096)
	y := make([]float64, 4096)
	for i := range x {
		x[i], y[i] = r.NormFloat64(), r.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Dot(x, y)
	}
}

// BenchmarkKernels times each kernel at the shapes training runs it at:
// an MLP-64 dense layer over a 512-row minibatch (forward a·Wᵀ, input
// gradient dOut·W, weight gradient dOutᵀ·in), the actor's 1-row forward,
// and the first CNN layer's per-sample products over 16 positions of
// 192-wide patches with 16 filters.
func BenchmarkKernels(b *testing.B) {
	r := rng.New(3)
	in, w, dOut := randMat(r, 512, 64), randMat(r, 64, 64), randMat(r, 512, 64)
	obs := randMat(r, 1, 64)
	cols, filters, dRes := randMat(r, 16, 192), randMat(r, 16, 192), randMat(r, 16, 16)
	cases := []struct {
		name   string
		kernel func(dst, a, b *Mat)
		dst    *Mat
		x, y   *Mat
	}{
		{"MatMul/dense512x64", MatMul, NewMat(512, 64), dOut, w},
		{"MatMulABT/dense512x64", MatMulABT, NewMat(512, 64), in, w},
		{"MatMulATB/dense512x64", MatMulATB, NewMat(64, 64), dOut, in},
		{"MatMulATBAdd/dense512x64", MatMulATBAdd, NewMat(64, 64), dOut, in},
		{"MatMulABT/actor1x64", MatMulABT, NewMat(1, 64), obs, w},
		{"MatMul/conv16x192", MatMul, NewMat(16, 192), dRes, filters},
		{"MatMulABT/conv16x192", MatMulABT, NewMat(16, 16), cols, filters},
		{"MatMulATB/conv16x192", MatMulATB, NewMat(16, 192), dRes, cols},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.kernel(c.dst, c.x, c.y)
			}
		})
	}
}
