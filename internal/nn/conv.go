package nn

import (
	"fmt"
	"math"

	"stellaris/internal/rng"
	"stellaris/internal/tensor"
)

// Conv2D is a valid (unpadded) strided 2-D convolution over channel-major
// flattened images. W has shape OutC x (InC*KH*KW), one filter per row;
// each batch row is convolved independently via im2col, making the layer
// a per-sample matmul: out_p = cols_p * Wᵀ + b.
type Conv2D struct {
	Shape tensor.ConvShape
	W, B  *Param

	lastCols []*tensor.Mat // per-sample im2col matrices
	lastRows int

	// Reused forward/backward buffers (see package doc on ownership).
	out, res         *tensor.Mat
	dIn, dRes, dCols *tensor.Mat
}

// NewConv2D creates a convolution layer with He-uniform initialized
// filters (the conventional pairing with ReLU trunks), seeded from r.
func NewConv2D(shape tensor.ConvShape, r *rng.RNG) *Conv2D {
	if err := shape.Validate(); err != nil {
		panic(err)
	}
	c := &Conv2D{
		Shape: shape,
		W:     newParam(fmt.Sprintf("conv%d.W", shape.OutC), shape.OutC*shape.PatchSize()),
		B:     newParam(fmt.Sprintf("conv%d.b", shape.OutC), shape.OutC),
	}
	limit := math.Sqrt(6.0 / float64(shape.PatchSize()))
	for i := range c.W.Data {
		c.W.Data[i] = (2*r.Float64() - 1) * limit
	}
	return c
}

// Name implements Layer.
func (c *Conv2D) Name() string {
	s := c.Shape
	return fmt.Sprintf("Conv2D(%dx%dx%d->%d@%dx%ds%d)", s.InC, s.InH, s.InW, s.OutC, s.KH, s.KW, s.Stride)
}

// OutDim implements Layer.
func (c *Conv2D) OutDim(in int) int {
	if in != c.Shape.InSize() {
		panic(fmt.Sprintf("nn: %s fed width %d", c.Name(), in))
	}
	return c.Shape.OutSize()
}

// Params implements Layer.
func (c *Conv2D) Params() []*Param { return []*Param{c.W, c.B} }

// Forward implements Layer.
func (c *Conv2D) Forward(in *tensor.Mat) *tensor.Mat {
	s := &c.Shape
	if in.Cols != s.InSize() {
		panic(fmt.Sprintf("nn: %s fed %d cols", c.Name(), in.Cols))
	}
	c.lastRows = in.Rows
	if cap(c.lastCols) < in.Rows {
		c.lastCols = make([]*tensor.Mat, in.Rows)
	}
	c.lastCols = c.lastCols[:in.Rows]

	out := ensureMat(&c.out, in.Rows, s.OutSize())
	w := tensor.MatFrom(s.OutC, s.PatchSize(), c.W.Data)
	positions := s.OutH * s.OutW
	// res is positions x OutC, fully overwritten per sample; output
	// layout is channel-major, so transpose while scattering into the
	// flat row.
	res := ensureMat(&c.res, positions, s.OutC)
	for i := 0; i < in.Rows; i++ {
		cols := c.lastCols[i]
		if cols == nil {
			cols = tensor.NewMat(positions, s.PatchSize())
			c.lastCols[i] = cols
		}
		s.Im2Col(cols, in.Row(i))
		tensor.MatMulABT(res, cols, w)
		orow := out.Row(i)
		for p := 0; p < positions; p++ {
			rrow := res.Row(p)
			for oc := 0; oc < s.OutC; oc++ {
				orow[oc*positions+p] = rrow[oc] + c.B.Data[oc]
			}
		}
	}
	return out
}

// Backward implements Layer.
func (c *Conv2D) Backward(dOut *tensor.Mat) *tensor.Mat {
	s := &c.Shape
	if c.lastRows != dOut.Rows {
		panic("nn: Conv2D.Backward batch mismatch")
	}
	positions := s.OutH * s.OutW
	dIn := ensureMat(&c.dIn, dOut.Rows, s.InSize())
	dIn.Zero() // Col2Im accumulates into its destination
	w := tensor.MatFrom(s.OutC, s.PatchSize(), c.W.Data)
	dW := tensor.MatFrom(s.OutC, s.PatchSize(), c.W.Grad)
	dRes := ensureMat(&c.dRes, positions, s.OutC)
	dCols := ensureMat(&c.dCols, positions, s.PatchSize())
	for i := 0; i < dOut.Rows; i++ {
		drow := dOut.Row(i)
		// Re-transpose the channel-major flat gradient to positions x OutC.
		for p := 0; p < positions; p++ {
			rrow := dRes.Row(p)
			for oc := 0; oc < s.OutC; oc++ {
				rrow[oc] = drow[oc*positions+p]
			}
		}
		// db += colsum(dRes), dW += dResᵀ * cols, dCols = dRes * W.
		tensor.SumRows(c.B.Grad, dRes)
		tensor.MatMulATBAdd(dW, dRes, c.lastCols[i])
		tensor.MatMul(dCols, dRes, w)
		s.Col2Im(dIn.Row(i), dCols)
	}
	return dIn
}
