package tensor

import "fmt"

// Packed holds a weight matrix b in the register tile's panel layout, so that
// a product whose b does not change between calls — every inference forward
// of a fitted model — reads panels instead of packing them per call and per
// pool chunk. The layout is tilePanels' own: b's k axis cut into blocks of
// tileKC, and within a block one kc x 16 zero-padded panel per 16 columns,
// block by block and then panel by panel, K·⌈N/16⌉·16 elements in all.
//
// The panels are filled from b's values by the first product that reads them
// after Repack, into the storage of the last fill when the shape is unchanged,
// and only on the tier whose tile reads panels: elsewhere, and for products
// too short to hold a strip, a Packed holds b and nothing else.
type Packed struct {
	b      *Matrix
	panels []float64
	filled bool   // panels holds b's values as of the last Repack
	call   affine // the operands of the product in flight
}

// Repack makes p stand for b as its values are now: the next product that
// reads panels refills them. Call it whenever b's values change.
func (p *Packed) Repack(b *Matrix) { p.b, p.filled = b, false }

// Matrix returns the matrix p stands for, nil before the first Repack.
func (p *Packed) Matrix() *Matrix { return p.b }

// PanelBytes is what a Packed for a k x n b holds once a product with rows
// rows has read it: the panels where that product runs on the tile, none
// where it does not.
func PanelBytes(rows, k, n int) int {
	if !useTile(k, n) || rows < tileM {
		return 0
	}
	return k * (n + tileN - 1) / tileN * tileN * 8
}

// fill packs b into the panels, reusing their storage.
func (p *Packed) fill() {
	b := p.b
	k, n := b.Rows, b.Cols
	size := PanelBytes(tileM, k, n) / 8
	if cap(p.panels) < size {
		p.panels = make([]float64, size)
	}
	p.panels = p.panels[:size]
	off := 0
	for k0 := 0; k0 < k; k0 += tileKC {
		kc := min(tileKC, k-k0)
		for j0 := 0; j0 < n; j0 += tileN {
			packPanel16(&p.panels[off], &b.Data[k0*n+j0], uintptr(n)*8, kc, panelMask(n, j0))
			off += kc * tileN
		}
	}
	p.filled = true
}

// MatMulAddRowPackedInto is MatMulAddRowInto for the matrix b stands for,
// reading its panels: the same kernels, chunks and bits. When act is non-nil
// it also stores gelu(dst) into act (GELUInto's bits), each pool chunk
// applying it to its own rows while they are cache-hot, so that a layer and
// its activation are one dispatch. dst and act must not alias a or each
// other.
func MatMulAddRowPackedInto(dst, a *Matrix, b *Packed, bias, act *Matrix) *Matrix {
	w := b.b
	if a.Cols != w.Rows {
		panic(fmt.Sprintf("tensor: MatMulAddRowPackedInto shape mismatch %dx%d @ %dx%d", a.Rows, a.Cols, w.Rows, w.Cols))
	}
	if bias.Rows != 1 || bias.Cols != w.Cols {
		panic(fmt.Sprintf("tensor: MatMulAddRowPackedInto bias shape %dx%d, want 1x%d", bias.Rows, bias.Cols, w.Cols))
	}
	checkInto(dst, a, w, a.Rows, w.Cols, "MatMulAddRowPackedInto")
	if act != nil {
		checkInto(act, a, dst, a.Rows, w.Cols, "MatMulAddRowPackedInto act")
	}
	var panels []float64
	if PanelBytes(a.Rows, w.Rows, w.Cols) > 0 {
		if !b.filled {
			b.fill()
		}
		panels = b.panels
	}
	b.call = affine{a: a, b: w, bias: bias.Data, dst: dst, act: act, panels: panels}
	dispatch(chunkTask{ranger: &b.call}, a.Rows, a.Rows*a.Cols*w.Cols, tileM, matmulThreshold())
	return dst
}

// affine is one MatMulAddRowPackedInto as a RangeKernel over output rows.
type affine struct {
	a, b, dst, act *Matrix
	bias, panels   []float64
}

func (k *affine) RunRange(lo, hi int) {
	matmulRange(k.a, k.b, k.dst, k.bias, k.panels, lo, hi, false)
	if k.act != nil {
		n := k.dst.Cols
		geluElems(k.dst, nil, nil, k.act, lo*n, hi*n)
	}
}
