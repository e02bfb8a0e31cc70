package nn

import (
	"fmt"
	"math"

	"silofuse/internal/tensor"
)

// This file implements the reduced-precision inference path: float32
// forward-only snapshots of trained float64 modules, built where
// bit-exactness is not contracted (diffusion sampling, decode-side
// autoencoder trunks). Training never touches these types — gradients,
// optimiser state and every Backward stay float64 — so the snapshots carry
// no Param machinery, only weight copies and persistent workspaces.
//
// Snapshots are taken from live layers: NewLinear32FromLinear narrows
// whatever the Param currently holds.

// Linear32 is a forward-only float32 copy of a Linear layer: y = xW + b.
type Linear32 struct {
	W, B *tensor.Matrix32
	out  *tensor.Matrix32
}

// NewLinear32FromLinear narrows the layer's current weights to float32.
func NewLinear32FromLinear(l *Linear) *Linear32 {
	return &Linear32{W: tensor.To32(l.W.Value), B: tensor.To32(l.B.Value)}
}

// Forward computes xW + b with the f32 fused kernel.
func (l *Linear32) Forward(x *tensor.Matrix32) *tensor.Matrix32 {
	l.out = tensor.Ensure32(l.out, x.Rows, l.W.Cols)
	return tensor.MatMulAddRow32Into(l.out, x, l.W, l.B)
}

// GELU32 is the forward-only float32 GELU. The erf itself is evaluated in
// float64 (Go has no float32 erf) and rounded once — the same
// transcendental the f64 path computes, so the only precision loss is the
// float32 representation of inputs and outputs.
type GELU32 struct {
	out *tensor.Matrix32
}

// Forward applies gelu elementwise.
func (g *GELU32) Forward(x *tensor.Matrix32) *tensor.Matrix32 {
	g.out = tensor.Ensure32(g.out, x.Rows, x.Cols)
	for i, v := range x.Data {
		vf := float64(v)                                                //silofuse:precision-ok erf is evaluated in float64 and rounded once
		g.out.Data[i] = float32(0.5 * vf * (1 + math.Erf(vf*invSqrt2))) //silofuse:precision-ok erf is evaluated in float64 and rounded once
	}
	return g.out
}

// forward32Layer is one stage of a float32 inference trunk.
type forward32Layer interface {
	Forward(x *tensor.Matrix32) *tensor.Matrix32
}

// Sequential32 chains forward-only float32 layers.
type Sequential32 struct {
	Layers []forward32Layer
}

// NewSequential32 snapshots an inference trunk: Linear layers are narrowed,
// GELU maps to GELU32, and Dropout — identity in evaluation mode — is
// dropped entirely. Any other layer kind is a bug in the caller: the f32
// path only backs the MLP trunks this repository samples and decodes with.
func NewSequential32(s *Sequential) (*Sequential32, error) {
	out := &Sequential32{}
	for _, l := range s.Layers {
		switch l := l.(type) {
		case *Linear:
			out.Layers = append(out.Layers, NewLinear32FromLinear(l))
		case *GELU:
			out.Layers = append(out.Layers, &GELU32{})
		case *Dropout:
			// eval-mode identity
		default:
			return nil, fmt.Errorf("nn: no float32 forward for layer %T", l)
		}
	}
	return out, nil
}

// Forward applies every layer in order.
func (s *Sequential32) Forward(x *tensor.Matrix32) *tensor.Matrix32 {
	for _, l := range s.Layers {
		x = l.Forward(x)
	}
	return x
}

// DiffusionMLP32 is the forward-only float32 snapshot of a DiffusionMLP,
// used by the reduced-precision sampling loop. Structure mirrors the f64
// Forward exactly: input projection plus projected sinusoidal timestep
// features, the hidden trunk, and the output projection.
type DiffusionMLP32 struct {
	In, TimeDim int

	inProj   *Linear32
	timeProj *Linear32
	blocks   *Sequential32
	outProj  *Linear32

	embed [][]float32 // narrowed sinusoidal rows, indexed by timestep
	tfeat *tensor.Matrix32
	hsum  *tensor.Matrix32
}

// Snapshot32 narrows the backbone's current weights into a forward-only
// float32 twin; the snapshot does not track later weight updates.
func (d *DiffusionMLP) Snapshot32() (*DiffusionMLP32, error) {
	blocks, err := NewSequential32(d.blocks)
	if err != nil {
		return nil, err
	}
	s := &DiffusionMLP32{
		In: d.In, TimeDim: d.TimeDim,
		inProj:   NewLinear32FromLinear(d.inProj),
		timeProj: NewLinear32FromLinear(d.timeProj),
		blocks:   blocks,
		outProj:  NewLinear32FromLinear(d.outProj),
		embed:    make([][]float32, len(d.embed)),
	}
	for t, row := range d.embed {
		if row != nil {
			s.embed[t] = tensor.VecTo32(row)
		}
	}
	return s, nil
}

// embedRow32 returns the narrowed sinusoidal embedding for timestep t,
// computing it on first use for timesteps outside the snapshotted table.
func (d *DiffusionMLP32) embedRow32(t int) []float32 {
	if t >= len(d.embed) {
		grown := make([][]float32, t+1)
		copy(grown, d.embed)
		d.embed = grown
	}
	if d.embed[t] == nil {
		row := make([]float64, d.TimeDim)
		SinusoidalEmbedding(t, row)
		d.embed[t] = tensor.VecTo32(row)
	}
	return d.embed[t]
}

// Forward predicts the noise for inputs x at per-row timesteps ts, in
// evaluation mode (dropout off).
func (d *DiffusionMLP32) Forward(x *tensor.Matrix32, ts []int) *tensor.Matrix32 {
	d.tfeat = tensor.Ensure32(d.tfeat, len(ts), d.TimeDim)
	for i, t := range ts {
		copy(d.tfeat.Row(i), d.embedRow32(t))
	}
	h := d.inProj.Forward(x)
	te := d.timeProj.Forward(d.tfeat)
	d.hsum = tensor.Ensure32(d.hsum, h.Rows, h.Cols)
	h = tensor.Add32Into(d.hsum, h, te)
	h = d.blocks.Forward(h)
	return d.outProj.Forward(h)
}
