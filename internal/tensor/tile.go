package tensor

import "math"

// The register tile is the inner loop of the accumulating matmul kernels on
// CPUs with AVX-512 (tile8x16, tile_amd64.s): an 8 x 16 block of the output
// stays in registers while k runs, where the axpy kernels load and store the
// output once per four k. The loop nest here feeds it and decides what it
// does not take.
//
// Bits. A lane is one output column and k only ascends, so an element's add
// chain is the reference's — except that the tile multiplies a zero
// coefficient where the axpy kernels skip it. That is the identity: a chain
// that starts at +0 can never hold -0 under round-to-nearest (x + -x is +0,
// +0 + -0 is +0), so adding the ±0 product of a zero coefficient and a
// finite b leaves every bit alone. A k block boundary stores the chain's
// value and loads it back, which is no arithmetic at all.
//
// Not taken, and left to the axpy kernels: strips whose coefficients are
// mostly zero (one-hot inputs, where skipping beats multiplying), the
// rows mod 8 of a chunk, products narrower than 8 columns, and every CPU,
// architecture and build without AVX-512.

const (
	tileM  = 8   // output rows per tile, one strip
	tileN  = 16  // output columns per tile, two ZMM registers
	tileKC = 256 // coefficients per packed panel: 256 x 16 x 8 B = 32 KB, L1-resident

	// stripGroup strips are classified dense or sparse per pass, one bit
	// each; a group shares the packed panels.
	stripGroup = 64
)

// useTile reports whether a product with k coefficients per output element
// and n output columns runs on the register tile. k == 0 stays with the axpy
// kernels because they are the ones that clear the output.
func useTile(k, n int) bool { return kernelTier == tierAVX512 && k > 0 && n >= tileM }

// matmulRange stores output rows [lo, hi) of a@b (or of aᵀ@b when t1) on
// this process's tier: dense strips through the tile where there is one,
// everything else through the axpy kernels. A non-nil bias, one addend per
// output column, is added to every row once its accumulation has finished:
// in the tile's last store, or by a sweep behind the axpy kernels. A non-nil
// panels holds b already packed (Packed's layout), and the tile reads it
// instead of packing b itself.
func matmulRange(a, b, out *Matrix, bias, panels []float64, lo, hi int, t1 bool) {
	kw := a.Cols
	if t1 {
		kw = a.Rows
	}
	if !useTile(kw, out.Cols) {
		axpyRange(a, b, out, bias, lo, hi, t1)
		return
	}
	for g0 := lo; g0 < hi; g0 += stripGroup * tileM {
		g1 := min(g0+stripGroup*tileM, hi)
		strips := (g1 - g0) / tileM
		var dense uint64
		for s := 0; s < strips; s++ {
			if !sparseStrip(a, g0+s*tileM, t1) {
				dense |= 1 << s
			}
		}
		switch {
		case dense == 0:
		case panels != nil:
			tilePacked(a, out, bias, panels, g0, dense, t1)
		default:
			tilePanels(a, b, out, bias, g0, dense, t1)
		}
		// Runs of sparse strips, and the rows past the last whole strip.
		i := g0
		for s := 0; s < strips; s++ {
			if dense>>s&1 != 0 {
				axpyRange(a, b, out, bias, i, g0+s*tileM, t1)
				i = g0 + (s+1)*tileM
			}
		}
		axpyRange(a, b, out, bias, i, g1, t1)
	}
}

// matmulRangeT stores output rows [lo, hi) of a@wᵀ on the tile, for a wᵀ
// that exists only as w: every strip runs on the tile, reading panels packed
// ahead of time if panels is non-nil and packing them from w's rows per chunk
// otherwise, and the rows past the last whole strip take the same add chains
// from those panels or from w. The bias is added as in matmulRange.
func matmulRangeT(a, w, out *Matrix, bias, panels []float64, lo, hi int) {
	if !useTile(a.Cols, out.Cols) {
		dotRowsT(a, w, out, bias, lo, hi)
		return
	}
	for g0 := lo; g0 < hi; g0 += stripGroup * tileM {
		g1 := min(g0+stripGroup*tileM, hi)
		strips := (g1 - g0) / tileM
		if strips > 0 {
			dense := uint64(1)<<strips - 1
			if panels != nil {
				tilePacked(a, out, bias, panels, g0, dense, false)
			} else {
				tilePanelsT(a, w, out, bias, g0, dense)
			}
		}
		if panels != nil {
			panelRows(a, out, bias, panels, g0+strips*tileM, g1)
		} else {
			dotRowsT(a, w, out, bias, g0+strips*tileM, g1)
		}
	}
}

// sparseStrip reports whether the skip path is the faster one for the strip
// of output rows [i0, i0+8): at least three of every four coefficients of its
// first row are zero. One row decides because the operands the skip path
// exists for, one-hot features, are sparse in every row, and a wrong guess
// costs time, never bits. Counting stops as soon as the row is dense.
func sparseStrip(a *Matrix, i0 int, t1 bool) bool {
	if t1 {
		// Row i0's coefficients are column i0 of a.
		limit, nonzero := a.Rows/4, 0
		for k := i0; k < len(a.Data); k += a.Cols {
			if math.Float64bits(a.Data[k])<<1 != 0 {
				if nonzero++; nonzero > limit {
					return false
				}
			}
		}
		return true
	}
	row := a.Row(i0)
	limit, nonzero := len(row)/4, 0
	// ±0 is all zero bits below the sign. Eight at a time, so that the runs
	// of zeros a one-hot row is made of cost one test per eight.
	for ; len(row) >= 8; row = row[8:] {
		v := (*[8]float64)(row)
		if (math.Float64bits(v[0])|math.Float64bits(v[1])|math.Float64bits(v[2])|math.Float64bits(v[3])|
			math.Float64bits(v[4])|math.Float64bits(v[5])|math.Float64bits(v[6])|math.Float64bits(v[7]))<<1 != 0 {
			if nonzero += countNonzero(v[:]); nonzero > limit {
				return false
			}
		}
	}
	return nonzero+countNonzero(row) <= limit
}

func countNonzero(vs []float64) int {
	n := 0
	for _, v := range vs {
		if math.Float64bits(v)<<1 != 0 {
			n++
		}
	}
	return n
}

// tilePanels runs the strips of the group starting at output row g0 whose
// bit is set in dense. k is cut into blocks of tileKC, outermost, so the
// group's block of a stays in L2 while every column panel passes over it; one
// packed kc x 16 panel of b then serves every strip of the group from L1. A
// later k block resumes each chain from the value the previous one stored, and
// the last one adds the bias, if there is one, as it stores.
func tilePanels(a, b, out *Matrix, bias []float64, g0 int, dense uint64, t1 bool) {
	var panel [tileKC * tileN]float64
	n := b.Cols
	// a@b reads coefficient (i, k) at a[i][k]; aᵀ@b reads it at a[k][i].
	kw, aRow, aStep := a.Cols, a.Cols, 1
	if t1 {
		kw, aRow, aStep = a.Rows, 1, a.Cols
	}
	for k0 := 0; k0 < kw; k0 += tileKC {
		kc := min(tileKC, kw-k0)
		for j0 := 0; j0 < n; j0 += tileN {
			// The tile streams b from a packed, zero-padded copy of the
			// panel whatever b's width is: unpacked, a power-of-two width
			// strides the panel's rows onto a handful of cache sets and a
			// 2932-wide one onto a page per k.
			packPanel16(&panel[0], &b.Data[k0*n+j0], uintptr(n)*8, kc, panelMask(n, j0))
			tileStrips(a, out, bias, &panel[0], g0, dense, aRow, aStep, k0, kc, kw, j0)
		}
	}
}

// tilePanelsT is tilePanels for a@wᵀ, packing each panel of wᵀ from w's
// rows.
func tilePanelsT(a, w, out *Matrix, bias []float64, g0 int, dense uint64) {
	var panel [tileKC * tileN]float64
	kw, n := a.Cols, out.Cols
	for k0 := 0; k0 < kw; k0 += tileKC {
		kc := min(tileKC, kw-k0)
		for j0 := 0; j0 < n; j0 += tileN {
			packPanelT(panel[:kc*tileN], w, k0, j0)
			tileStrips(a, out, bias, &panel[0], g0, dense, kw, 1, k0, kc, kw, j0)
		}
	}
}

// packPanelT packs the kc x 16 panel of wᵀ at k0 and column j0 into dst,
// zero-padded past wᵀ's last column: panel row kk is column k0+kk of rows
// j0.. of w. It writes the panel column by column, each from one contiguous
// run of a row of w.
func packPanelT(dst []float64, w *Matrix, k0, j0 int) {
	kc, cols := len(dst)/tileN, min(tileN, w.Rows-j0)
	for jj := 0; jj < cols; jj++ {
		for kk, v := range w.Data[(j0+jj)*w.Cols+k0:][:kc] {
			dst[kk*tileN+jj] = v
		}
	}
	for jj := cols; jj < tileN; jj++ {
		for kk := 0; kk < kc; kk++ {
			dst[kk*tileN+jj] = 0
		}
	}
}

// dotRowsT stores output rows [lo, hi) of a@wᵀ from w itself, one element at
// a time: the ascending-k chain from +0 of the axpy kernels, zero
// coefficients skipped, then the bias. It takes the rows mod 8 of a product
// whose wᵀ exists only as w.
func dotRowsT(a, w, out *Matrix, bias []float64, lo, hi int) {
	kw := a.Cols
	for i := lo; i < hi; i++ {
		arow, orow := a.Row(i), out.Row(i)
		for j := range orow {
			wrow := w.Data[j*kw:][:len(arow)]
			s := 0.0
			for k, av := range arow {
				if av != 0 { //silofuse:bitwise-ok zero-skip sparsity fast path
					s += av * wrow[k]
				}
			}
			orow[j] = s
		}
	}
	addRowRange(out, bias, lo, hi)
}

// tilePacked is tilePanels for a product whose panels were packed ahead of
// time: the same loop over the same panels in the order Packed stores them.
func tilePacked(a, out *Matrix, bias, panels []float64, g0 int, dense uint64, t1 bool) {
	kw, aRow, aStep := a.Cols, a.Cols, 1
	if t1 {
		kw, aRow, aStep = a.Rows, 1, a.Cols
	}
	n, off := out.Cols, 0
	for k0 := 0; k0 < kw; k0 += tileKC {
		kc := min(tileKC, kw-k0)
		for j0 := 0; j0 < n; j0 += tileN {
			tileStrips(a, out, bias, &panels[off], g0, dense, aRow, aStep, k0, kc, kw, j0)
			off += kc * tileN
		}
	}
}

// panelRows stores output rows [lo, hi) of a@b from b's panels alone, for the
// rows past the last whole strip of a product that has no b but its panels:
// per element the ascending-k chain of the axpy kernels, zero coefficients
// skipped, then the bias.
func panelRows(a, out *Matrix, bias, panels []float64, lo, hi int) {
	if lo >= hi {
		return
	}
	n, kw := out.Cols, a.Cols
	clear(out.Data[lo*n : hi*n])
	off := 0
	for k0 := 0; k0 < kw; k0 += tileKC {
		kc := min(tileKC, kw-k0)
		for j0 := 0; j0 < n; j0 += tileN {
			w := min(tileN, n-j0)
			for i := lo; i < hi; i++ {
				orow := out.Data[i*n+j0 : i*n+j0+w]
				for kk, av := range a.Data[i*kw+k0 : i*kw+k0+kc] {
					if av != 0 { //silofuse:bitwise-ok zero-skip sparsity fast path
						axpy1(orow, panels[off+kk*tileN:][:w], av)
					}
				}
			}
			off += kc * tileN
		}
	}
	addRowRange(out, bias, lo, hi)
}

// panelMask enables the columns of the 16-wide panel at j0 that b has.
func panelMask(n, j0 int) uint32 { return uint32(1)<<min(tileN, n-j0) - 1 }

// tileStrips runs one kc x 16 panel, at k0 and output column j0, over every
// strip of the group at g0 whose bit is set in dense.
func tileStrips(a, out *Matrix, bias []float64, panel *float64, g0 int, dense uint64, aRow, aStep, k0, kc, kw, j0 int) {
	n, mask := out.Cols, panelMask(out.Cols, j0)
	var addend *float64
	if bias != nil && k0+kc == kw {
		addend = &bias[j0]
	}
	for s, m := 0, dense; m != 0; s, m = s+1, m>>1 {
		if m&1 == 0 {
			continue
		}
		i0 := g0 + s*tileM
		tile8x16(&out.Data[i0*n+j0], uintptr(n)*8,
			&a.Data[i0*aRow+k0*aStep], uintptr(aRow)*8, uintptr(aStep)*8,
			panel, kc, mask, k0 > 0, addend)
	}
}

// axpyRange stores output rows [lo, hi) through the axpy kernels, and adds
// the bias row, if there is one, to each block of rows while it is cache-hot.
func axpyRange(a, b, out *Matrix, bias []float64, lo, hi int, t1 bool) {
	if t1 {
		if lo < hi {
			matmulT1Axpy(a, b, out, lo, hi)
			addRowRange(out, bias, lo, hi)
		}
		return
	}
	for i0 := lo; i0 < hi; i0 += rowBlock {
		i1 := min(i0+rowBlock, hi)
		axpyRows(a, b, out, i0, i1)
		addRowRange(out, bias, i0, i1)
	}
}
