// Package tensor implements the dense linear-algebra primitives underlying
// Stellaris's neural networks: flat float64 vectors, row-major matrices,
// and the im2col transformation used by the convolutional layers.
//
// The package is deliberately small and allocation-aware rather than
// general: every hot loop in DRL gradient computation reduces to matmul,
// matvec, axpy and elementwise maps over contiguous slices.
//
// The matmul kernels are register-blocked. MatMulABT computes four dot
// products per pass over a row of a; MatMul, MatMulATB and MatMulATBAdd
// add four scaled rows of b per pass over a row of dst. Blocking changes
// no bits: every output element is still a left-to-right sum that starts
// at +0 and adds its terms in ascending k, the order of the plain loops.
// Zero terms may be skipped or added alike: an accumulator that starts at
// +0 never becomes -0, so adding 0·b (for finite b) cannot change it.
// That is why a 4-block whose coefficients are all zero is skipped while
// a block with some zeros adds them. Bounds checks go by re-slicing rows
// to a common length.
package tensor

import (
	"fmt"
	"math"
)

// Mat is a dense row-major matrix.
type Mat struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewMat allocates a zeroed Rows x Cols matrix.
func NewMat(rows, cols int) *Mat {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dims %dx%d", rows, cols))
	}
	return &Mat{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// MatFrom wraps data as a Rows x Cols matrix without copying.
func MatFrom(rows, cols int, data []float64) *Mat {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: data length %d != %dx%d", len(data), rows, cols))
	}
	return &Mat{Rows: rows, Cols: cols, Data: data}
}

// At returns element (i, j).
func (m *Mat) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Mat) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice sharing m's storage.
func (m *Mat) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Mat) Clone() *Mat {
	c := NewMat(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Zero sets all elements of m to zero.
func (m *Mat) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// MatMul computes dst = a * b. dst must not alias a or b.
// Shapes: a is m x k, b is k x n, dst is m x n.
func MatMul(dst, a, b *Mat) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch (%dx%d)*(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	for i := 0; i < a.Rows; i++ {
		drow := dst.Row(i)
		clear(drow)
		addRows(drow, a.Row(i), 1, b, 0)
	}
}

// MatMulATB computes dst = aᵀ * b (a is k x m, b is k x n, dst is m x n).
func MatMulATB(dst, a, b *Mat) {
	dst.Zero()
	MatMulATBAdd(dst, a, b)
}

// MatMulATBAdd computes dst += aᵀ * b, the weight-gradient accumulation
// of the backward passes. Each element's sum is formed from zero and then
// added to dst once, so the result is bit-identical to computing aᵀ * b
// into a scratch matrix and adding that with Axpy, without the scratch.
// (Adding term by term into dst would round differently.)
func MatMulATBAdd(dst, a, b *Mat) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulATB shape mismatch (%dx%d)ᵀ*(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	// Sums are formed on the stack, addChunk columns of a row at a time.
	const addChunk = 256
	var buf [addChunk]float64
	for j0 := 0; j0 < b.Cols; j0 += addChunk {
		s := buf[:min(addChunk, b.Cols-j0)]
		for i := 0; i < dst.Rows; i++ {
			clear(s)
			addRows(s, a.Data[i:], a.Cols, b, j0)
			drow := dst.Row(i)[j0:][:len(s)]
			for j, v := range s {
				drow[j] += v
			}
		}
	}
}

// addRows adds Σ_k coef[k*stride]·b[k][off:off+len(d)] to d, over the
// rows k of b in ascending order: four rows per pass over d, then the
// remainder one at a time. A block whose coefficients are all zero is
// skipped (see the package comment for why that keeps every bit).
func addRows(d, coef []float64, stride int, b *Mat, off int) {
	n, k := len(d), 0
	for ; k+4 <= b.Rows; k += 4 {
		c0, c1, c2, c3 := coef[k*stride], coef[(k+1)*stride], coef[(k+2)*stride], coef[(k+3)*stride]
		if c0 == 0 && c1 == 0 && c2 == 0 && c3 == 0 {
			continue
		}
		b0 := b.Data[k*b.Cols+off:][:n]
		b1 := b.Data[(k+1)*b.Cols+off:][:n]
		b2 := b.Data[(k+2)*b.Cols+off:][:n]
		b3 := b.Data[(k+3)*b.Cols+off:][:n]
		for j, v := range d {
			d[j] = v + c0*b0[j] + c1*b1[j] + c2*b2[j] + c3*b3[j]
		}
	}
	for ; k < b.Rows; k++ {
		c := coef[k*stride]
		if c == 0 {
			continue
		}
		bk := b.Data[k*b.Cols+off:][:n]
		for j, v := range d {
			d[j] = v + c*bk[j]
		}
	}
}

// MatMulABT computes dst = a * bᵀ (a is m x k, b is n x k, dst is m x n),
// the forward pass of dense and convolutional layers. Four rows of b
// share each pass over a row of a.
func MatMulABT(dst, a, b *Mat) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulABT shape mismatch (%dx%d)*(%dx%d)ᵀ->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		j := 0
		for ; j+4 <= b.Rows; j += 4 {
			drow[j], drow[j+1], drow[j+2], drow[j+3] = dot4(arow, b.Row(j), b.Row(j+1), b.Row(j+2), b.Row(j+3))
		}
		for ; j < b.Rows; j++ {
			drow[j] = Dot(arow, b.Row(j))
		}
	}
}

// dot4 returns the inner products of a with b0..b3, each summed like Dot.
func dot4(a, b0, b1, b2, b3 []float64) (s0, s1, s2, s3 float64) {
	b0, b1, b2, b3 = b0[:len(a)], b1[:len(a)], b2[:len(a)], b3[:len(a)]
	for k, av := range a {
		s0 += av * b0[k]
		s1 += av * b1[k]
		s2 += av * b2[k]
		s3 += av * b3[k]
	}
	return s0, s1, s2, s3
}

// Dot returns the inner product of a and b.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i, av := range a {
		s += av * b[i]
	}
	return s
}

// Axpy computes y += alpha * x.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("tensor: Axpy length mismatch %d vs %d", len(x), len(y)))
	}
	for i, xv := range x {
		y[i] += alpha * xv
	}
}

// Scale computes x *= alpha in place.
func Scale(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// AddBiasRows adds bias to every row of m.
func AddBiasRows(m *Mat, bias []float64) {
	if len(bias) != m.Cols {
		panic(fmt.Sprintf("tensor: bias length %d != cols %d", len(bias), m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, bv := range bias {
			row[j] += bv
		}
	}
}

// SumRows accumulates the column sums of m into dst (dst += colsum).
func SumRows(dst []float64, m *Mat) {
	if len(dst) != m.Cols {
		panic(fmt.Sprintf("tensor: SumRows dst length %d != cols %d", len(dst), m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			dst[j] += v
		}
	}
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

// ClipNorm rescales x in place so its Euclidean norm is at most maxNorm,
// returning the original norm. A non-positive maxNorm disables clipping.
func ClipNorm(x []float64, maxNorm float64) float64 {
	n := Norm2(x)
	if maxNorm > 0 && n > maxNorm {
		Scale(maxNorm/n, x)
	}
	return n
}

// Mean returns the arithmetic mean of x (0 for empty input).
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var s float64
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// Std returns the population standard deviation of x.
func Std(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	m := Mean(x)
	var s float64
	for _, v := range x {
		d := v - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(x)))
}

// Standardize shifts and scales x in place to zero mean, unit std.
// A tiny epsilon guards against constant inputs.
func Standardize(x []float64) {
	m, sd := Mean(x), Std(x)
	if sd < 1e-8 {
		sd = 1e-8
	}
	for i := range x {
		x[i] = (x[i] - m) / sd
	}
}
