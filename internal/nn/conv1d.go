package nn

import (
	"fmt"
	"math"
	"math/rand"

	"silofuse/internal/tensor"
)

// Conv1D is a 1-D convolution over tabular feature vectors, used by the
// GAN(conv) baseline (CTAB-GAN style backbone). Activations are stored as
// (batch, channels*length) matrices with channel-major layout: element
// (c, p) lives at column c*length + p.
type Conv1D struct {
	InC, OutC, K, Stride, Pad int

	W, B  *Param // W: (OutC, InC*K)
	input *tensor.Matrix
	inLen int

	out, gin *tensor.Matrix // persistent workspaces
}

// NewConv1D creates a Conv1D layer with Kaiming-uniform initialisation.
func NewConv1D(rng *rand.Rand, inC, outC, k, stride, pad int) *Conv1D {
	fanIn := float64(inC * k)
	bound := math.Sqrt(1.0 / fanIn)
	w := tensor.New(outC, inC*k).RandUniform(rng, -bound, bound)
	b := tensor.New(1, outC).RandUniform(rng, -bound, bound)
	return &Conv1D{InC: inC, OutC: outC, K: k, Stride: stride, Pad: pad,
		W: NewParam("conv.W", w), B: NewParam("conv.b", b)}
}

// OutLen returns the output length for an input of length l.
func (c *Conv1D) OutLen(l int) int { return (l+2*c.Pad-c.K)/c.Stride + 1 }

// Forward applies the convolution to every row of x.
func (c *Conv1D) Forward(x *tensor.Matrix, _ bool) *tensor.Matrix {
	if x.Cols%c.InC != 0 {
		panic(fmt.Sprintf("nn: Conv1D input cols %d not divisible by channels %d", x.Cols, c.InC))
	}
	c.input = x
	c.inLen = x.Cols / c.InC
	ol := c.OutLen(c.inLen)
	if ol <= 0 {
		panic(fmt.Sprintf("nn: Conv1D non-positive output length for input length %d", c.inLen))
	}
	c.out = tensor.Ensure(c.out, x.Rows, c.OutC*ol)
	out := c.out // every element is overwritten below, so reuse needs no clear
	for r := 0; r < x.Rows; r++ {
		xr := x.Row(r)
		or := out.Row(r)
		for oc := 0; oc < c.OutC; oc++ {
			wrow := c.W.Value.Row(oc)
			bias := c.B.Value.Data[oc]
			for op := 0; op < ol; op++ {
				s := bias
				base := op*c.Stride - c.Pad
				for ic := 0; ic < c.InC; ic++ {
					for k := 0; k < c.K; k++ {
						ip := base + k
						if ip < 0 || ip >= c.inLen {
							continue
						}
						s += wrow[ic*c.K+k] * xr[ic*c.inLen+ip]
					}
				}
				or[oc*ol+op] = s
			}
		}
	}
	return out
}

// Backward accumulates weight/bias gradients and returns the input gradient.
func (c *Conv1D) Backward(gradOut *tensor.Matrix) *tensor.Matrix {
	ol := c.OutLen(c.inLen)
	c.gin = tensor.Ensure(c.gin, c.input.Rows, c.input.Cols)
	gin := c.gin.Zero() // the loop below accumulates with +=
	wGrad, bGrad := c.W.EnsureGrad(), c.B.EnsureGrad().Data
	for r := 0; r < c.input.Rows; r++ {
		xr := c.input.Row(r)
		gr := gradOut.Row(r)
		gi := gin.Row(r)
		for oc := 0; oc < c.OutC; oc++ {
			wrow := c.W.Value.Row(oc)
			gwrow := wGrad.Row(oc)
			for op := 0; op < ol; op++ {
				g := gr[oc*ol+op]
				if g == 0 { //silofuse:bitwise-ok zero-skip sparsity fast path
					continue
				}
				bGrad[oc] += g
				base := op*c.Stride - c.Pad
				for ic := 0; ic < c.InC; ic++ {
					for k := 0; k < c.K; k++ {
						ip := base + k
						if ip < 0 || ip >= c.inLen {
							continue
						}
						gwrow[ic*c.K+k] += g * xr[ic*c.inLen+ip]
						gi[ic*c.inLen+ip] += g * wrow[ic*c.K+k]
					}
				}
			}
		}
	}
	return gin
}

// Params returns the convolution weights and bias.
func (c *Conv1D) Params() []*Param { return []*Param{c.W, c.B} }

// ConvTranspose1D is the transposed (fractionally strided) convolution used
// by the GAN(conv) generator to upsample from a compact noise tensor.
// Layout conventions match Conv1D.
type ConvTranspose1D struct {
	InC, OutC, K, Stride, Pad int

	W, B  *Param // W: (InC, OutC*K)
	input *tensor.Matrix
	inLen int

	out, gin *tensor.Matrix // persistent workspaces
}

// NewConvTranspose1D creates a transposed convolution layer.
func NewConvTranspose1D(rng *rand.Rand, inC, outC, k, stride, pad int) *ConvTranspose1D {
	fanIn := float64(inC * k)
	bound := math.Sqrt(1.0 / fanIn)
	w := tensor.New(inC, outC*k).RandUniform(rng, -bound, bound)
	b := tensor.New(1, outC).RandUniform(rng, -bound, bound)
	return &ConvTranspose1D{InC: inC, OutC: outC, K: k, Stride: stride, Pad: pad,
		W: NewParam("convT.W", w), B: NewParam("convT.b", b)}
}

// OutLen returns the output length for an input of length l.
func (c *ConvTranspose1D) OutLen(l int) int { return (l-1)*c.Stride - 2*c.Pad + c.K }

// Forward applies the transposed convolution to every row of x.
func (c *ConvTranspose1D) Forward(x *tensor.Matrix, _ bool) *tensor.Matrix {
	if x.Cols%c.InC != 0 {
		panic(fmt.Sprintf("nn: ConvTranspose1D input cols %d not divisible by channels %d", x.Cols, c.InC))
	}
	c.input = x
	c.inLen = x.Cols / c.InC
	ol := c.OutLen(c.inLen)
	if ol <= 0 {
		panic(fmt.Sprintf("nn: ConvTranspose1D non-positive output length for input length %d", c.inLen))
	}
	c.out = tensor.Ensure(c.out, x.Rows, c.OutC*ol)
	out := c.out // every position is seeded with the bias below, so reuse needs no clear
	for r := 0; r < x.Rows; r++ {
		xr := x.Row(r)
		or := out.Row(r)
		for oc := 0; oc < c.OutC; oc++ {
			bias := c.B.Value.Data[oc]
			for op := 0; op < ol; op++ {
				or[oc*ol+op] = bias
			}
		}
		for ic := 0; ic < c.InC; ic++ {
			wrow := c.W.Value.Row(ic)
			for ip := 0; ip < c.inLen; ip++ {
				xv := xr[ic*c.inLen+ip]
				if xv == 0 { //silofuse:bitwise-ok zero-skip sparsity fast path
					continue
				}
				for oc := 0; oc < c.OutC; oc++ {
					for k := 0; k < c.K; k++ {
						op := ip*c.Stride + k - c.Pad
						if op < 0 || op >= ol {
							continue
						}
						or[oc*ol+op] += xv * wrow[oc*c.K+k]
					}
				}
			}
		}
	}
	return out
}

// Backward accumulates weight/bias gradients and returns the input gradient.
func (c *ConvTranspose1D) Backward(gradOut *tensor.Matrix) *tensor.Matrix {
	ol := c.OutLen(c.inLen)
	c.gin = tensor.Ensure(c.gin, c.input.Rows, c.input.Cols)
	gin := c.gin.Zero() // the loop below accumulates with +=
	wGrad, bGrad := c.W.EnsureGrad(), c.B.EnsureGrad().Data
	for r := 0; r < c.input.Rows; r++ {
		xr := c.input.Row(r)
		gr := gradOut.Row(r)
		gi := gin.Row(r)
		for oc := 0; oc < c.OutC; oc++ {
			for op := 0; op < ol; op++ {
				bGrad[oc] += gr[oc*ol+op]
			}
		}
		for ic := 0; ic < c.InC; ic++ {
			wrow := c.W.Value.Row(ic)
			gwrow := wGrad.Row(ic)
			for ip := 0; ip < c.inLen; ip++ {
				xv := xr[ic*c.inLen+ip]
				gsum := 0.0
				for oc := 0; oc < c.OutC; oc++ {
					for k := 0; k < c.K; k++ {
						op := ip*c.Stride + k - c.Pad
						if op < 0 || op >= ol {
							continue
						}
						g := gr[oc*ol+op]
						gwrow[oc*c.K+k] += g * xv
						gsum += g * wrow[oc*c.K+k]
					}
				}
				gi[ic*c.inLen+ip] += gsum
			}
		}
	}
	return gin
}

// Params returns the transposed-convolution weights and bias.
func (c *ConvTranspose1D) Params() []*Param { return []*Param{c.W, c.B} }
