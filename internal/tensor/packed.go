package tensor

import "fmt"

// Packed holds a matrix b, or the transpose of one, in the register tile's
// panel layout, so that every chunk of a product reads panels packed once
// instead of packing them per chunk — and, for a b that does not change
// between calls (every inference forward of a fitted model), once for all of
// its products. The layout is tilePanels' own: the operand's k axis cut into
// blocks of tileKC, and within a block one kc x 16 zero-padded panel per 16
// columns, block by block and then panel by panel, K·⌈N/16⌉·16 elements in
// all.
//
// The panels are filled from b's values, into the storage of the last fill
// when the shape is unchanged, and only on the tier whose tile reads panels:
// by the first product after Repack (or RepackT) that runs on the pool and
// whose panels fit in L2, or by Pack ahead of it, and otherwise by the second
// product that reads the same b. A product that finds no panels packs them
// per chunk, as an unpacked product does, from b or, for a transpose, from
// the rows of the matrix it was made from; on the axpy tiers, which read the
// rows of bᵀ, a transpose holds bᵀ itself in the same storage.
type Packed struct {
	b      *Matrix
	t      bool      // p stands for bᵀ
	panels []float64 // the panels, or bᵀ where no product reads panels
	holds  holding   // what panels holds of b's values as of the last Repack
	read   bool      // a product has read b since the last Repack
	sums   []float64 // where the product in flight wants b's column sums
	bt     Matrix    // bᵀ's header over panels, when it holds bᵀ

	call product  // the operands of the product in flight
	pack packPass // the packing pass, a RangeKernel over panels
}

// Repack makes p stand for b as its values are now: the next product that
// reads panels refills them. Call it whenever b's values change.
func (p *Packed) Repack(b *Matrix) { p.b, p.t, p.holds, p.read = b, false, holdsNothing, false }

// RepackT makes p stand for bᵀ as b's values are now. The panels are packed
// from b's rows, so bᵀ is never formed where the tile reads them.
func (p *Packed) RepackT(b *Matrix) { p.b, p.t, p.holds, p.read = b, true, holdsNothing, false }

// holding is what a Packed's storage holds.
type holding uint8

const (
	holdsNothing holding = iota
	holdsPanels
	holdsTranspose
)

// Matrix returns the matrix p was made from (whose transpose it stands for
// after RepackT), nil before the first Repack.
func (p *Packed) Matrix() *Matrix { return p.b }

// dims is the k x n shape of the operand p stands for.
func (p *Packed) dims() (k, n int) {
	if p.t {
		return p.b.Cols, p.b.Rows
	}
	return p.b.Rows, p.b.Cols
}

// PanelBytes is what a Packed for a k x n b holds once a product with rows
// rows has read it: the panels where that product runs on the tile, none
// where it does not.
func PanelBytes(rows, k, n int) int {
	if !useTile(k, n) || rows < tileM {
		return 0
	}
	return k * (n + tileN - 1) / tileN * tileN * 8
}

// sharedPanelBytes bounds the panels a product packs for itself alone:
// panels that stay in L2 beside the chunk's rows, which every chunk then
// reads instead of packing b again. Above it, as for the churn silo's
// 2932-wide layers, a product is bound by reading b from memory, packing it
// once buys nothing, and a copy of b would only add to the peak memory of a
// training step, which reads each weight version once. A product too small
// for the pool is one chunk, which packs b once anyway.
const sharedPanelBytes = 1 << 20

// operand readies p for a product whose strips are rows long, of work
// multiply-adds, and returns what its chunks read — b, or for a transpose w
// with b = wᵀ, and the panels if there are any — and how many chunks a
// participant takes. Panels are packed for a product alone where it runs on
// the pool and they fit in L2 (shares), and for any product that reads b a
// second time since the last Repack.
func (p *Packed) operand(rows, work int) (b, w *Matrix, panels []float64, perP int) {
	k, n := p.dims()
	size := PanelBytes(rows, k, n)
	shares := size <= sharedPanelBytes && work >= matmulThreshold()
	if size > 0 && (p.holds == holdsPanels || shares || !p.t && p.read) {
		if p.holds != holdsPanels {
			p.fill(k, n, size/8)
		} else if p.sums != nil {
			p.b.ColSumsInto(p.sums)
		}
		// Every chunk streams all the panels past its rows: from L2 when they
		// fit there, and from memory, once per chunk, when they do not.
		perP = claimsPerWorker
		if size > sharedPanelBytes {
			perP = 1
		}
		if p.t {
			return nil, p.b, p.panels, perP
		}
		return p.b, nil, p.panels, perP
	}
	p.read = true
	if !p.t {
		if p.sums != nil {
			p.b.ColSumsInto(p.sums)
		}
		return p.b, nil, nil, unpackedPerP()
	}
	if kernelTier == tierAVX512 {
		return nil, p.b, nil, 1 // each chunk packs wᵀ's panels from w
	}
	// The axpy kernels read the rows of bᵀ.
	if p.holds != holdsTranspose {
		p.panels = ensureLen(p.panels, k*n)
		p.bt = Matrix{Rows: k, Cols: n, Data: p.panels}
		TransposeInto(&p.bt, p.b)
		p.holds = holdsTranspose
	}
	return &p.bt, nil, nil, claimsPerWorker
}

// Pack fills the panels a product whose strips are rows long would pack for
// itself on its first read of p, so that the product finds them ready: a
// caller with other work to overlap packs ahead. Where such a product packs
// per chunk, or reads p's matrix itself, Pack does nothing.
func (p *Packed) Pack(rows int) {
	k, n := p.dims()
	size := PanelBytes(rows, k, n)
	if size > 0 && size <= sharedPanelBytes && rows*k*n >= matmulThreshold() && p.holds != holdsPanels {
		p.fill(k, n, size/8)
	}
}

func ensureLen(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// fill packs the operand into size elements of panels, reusing their storage,
// on the pool when there are enough of them, and takes b's column sums on the
// way if the product asked for them.
func (p *Packed) fill(k, n, size int) {
	p.panels = ensureLen(p.panels, size)
	blocks := (k + tileKC - 1) / tileKC
	p.pack = packPass{b: p.b, t: p.t, panels: p.panels, sums: p.sums, k: k, n: n, blocks: blocks, cols: (n + tileN - 1) / tileN}
	dispatch(chunkTask{ranger: &p.pack}, blocks*p.pack.cols, k*n, blocks, parallelThreshold, claimsPerWorker)
	p.pack = packPass{}
	p.holds = holdsPanels
}

// packPass packs the panels [lo, hi) of a k x n operand, b itself or bᵀ read
// from b's rows when t. Panels are numbered column panel by column panel and
// within one k block by k block, and chunks are cut on whole column panels,
// so that a chunk that also sums b's columns (sums non-nil) adds each
// column's rows in ascending order, as ColSumsInto does.
type packPass struct {
	b                  *Matrix
	t                  bool
	panels, sums       []float64
	k, n, blocks, cols int
}

func (s *packPass) RunRange(lo, hi int) {
	for i := lo; i < hi; i++ {
		k0, j0 := i%s.blocks*tileKC, i/s.blocks*tileN
		kc := min(tileKC, s.k-k0)
		dst := s.panels[k0*s.cols*tileN+(j0/tileN)*kc*tileN:][:kc*tileN]
		if s.t {
			packPanelT(dst, s.b, k0, j0)
			continue
		}
		packPanel16(&dst[0], &s.b.Data[k0*s.n+j0], uintptr(s.n)*8, kc, panelMask(s.n, j0))
		if s.sums != nil {
			sumPanel(s.sums[j0:min(j0+tileN, s.n)], dst, k0 == 0)
		}
	}
}

// Epilogue is what a packed product does to each pool chunk's output rows
// once they are stored, while they are cache-hot, so that a layer and what
// follows it are one dispatch. A non-nil Act receives gelu of the output
// (GELUInto's bits) and a non-nil Keep, beside it, 1 + erf(x/√2) (GELUKeepInto's);
// then a non-nil Then runs over the chunk's elements, as indices into the
// row-major output.
type Epilogue struct {
	Act, Keep *Matrix
	Then      RangeKernel
}

// MatMulAddRowPackedInto is MatMulAddRowInto for the matrix b stands for,
// reading its panels: the same kernels and bits, followed by ep. dst, ep.Act
// and ep.Keep must not alias a or each other.
func MatMulAddRowPackedInto(dst, a *Matrix, b *Packed, bias *Matrix, ep Epilogue) *Matrix {
	k, n := b.dims()
	if a.Cols != k {
		panic(fmt.Sprintf("tensor: MatMulAddRowPackedInto shape mismatch %dx%d @ %dx%d", a.Rows, a.Cols, k, n))
	}
	if bias.Rows != 1 || bias.Cols != n {
		panic(fmt.Sprintf("tensor: MatMulAddRowPackedInto bias shape %dx%d, want 1x%d", bias.Rows, bias.Cols, n))
	}
	checkInto(dst, a, b.b, a.Rows, n, "MatMulAddRowPackedInto")
	if ep.Act != nil {
		checkInto(ep.Act, a, dst, a.Rows, n, "MatMulAddRowPackedInto act")
	}
	if ep.Keep != nil {
		checkInto(ep.Keep, a, dst, a.Rows, n, "MatMulAddRowPackedInto keep")
		if ep.Act == nil || sharesData(ep.Keep, ep.Act) {
			panic("tensor: MatMulAddRowPackedInto keep needs an act it does not alias")
		}
	}
	b.run(dst, a, bias.Data, ep, a.Rows, false)
	return dst
}

// MatMulPackedInto is MatMulInto for the matrix b stands for, transposed or
// not, reading its panels: the same bits as MatMulInto of that matrix. dst
// must not alias a or b.
func MatMulPackedInto(dst, a *Matrix, b *Packed) *Matrix {
	k, n := b.dims()
	if a.Cols != k {
		panic(fmt.Sprintf("tensor: MatMulPackedInto shape mismatch %dx%d @ %dx%d", a.Rows, a.Cols, k, n))
	}
	checkInto(dst, a, b.b, a.Rows, n, "MatMulPackedInto")
	b.run(dst, a, nil, Epilogue{}, a.Rows, false)
	return dst
}

// MatMulT1PackedInto is MatMulT1Into for the matrix b stands for, which must
// not be a transpose: aᵀ@b with the same bits, every chunk reading the panels
// one packing made. Unless sums is nil it also stores b's column sums into
// sums (ColSumsInto's bits), taken while b is packed where it is. dst must
// not alias a or b.
func MatMulT1PackedInto(dst, a *Matrix, b *Packed, sums []float64) *Matrix {
	k, n := b.dims()
	if b.t || a.Rows != k {
		panic(fmt.Sprintf("tensor: MatMulT1PackedInto shape mismatch %dx%d, %dx%d", a.Rows, a.Cols, k, n))
	}
	checkInto(dst, a, b.b, a.Cols, n, "MatMulT1PackedInto")
	if sums != nil && len(sums) != n {
		panic(fmt.Sprintf("tensor: MatMulT1PackedInto sums length %d, want %d", len(sums), n))
	}
	b.sums = sums
	b.run(dst, a, nil, Epilogue{}, a.Cols, true)
	b.sums = nil
	return dst
}

// sumPanel adds the rows of one packed panel to sums, one per column the
// panel holds, in row order; first says these are a column's first rows, so
// the chains start from +0. The chains run in an accumulator per panel
// column (the padding columns add zeros to theirs, which nothing reads).
func sumPanel(sums, panel []float64, first bool) {
	var acc [tileN]float64
	if !first {
		copy(acc[:], sums)
	}
	for ; len(panel) >= tileN; panel = panel[tileN:] {
		row := (*[tileN]float64)(panel)
		for j := range acc {
			acc[j] += row[j]
		}
	}
	copy(sums, acc[:])
}

// run dispatches one product over its rows output rows.
func (p *Packed) run(dst, a *Matrix, bias []float64, ep Epilogue, rows int, t1 bool) {
	k, n := p.dims()
	perP := p.prepare(dst, a, bias, ep, t1)
	dispatch(chunkTask{ranger: &p.call}, rows, rows*k*n, tileM, matmulThreshold(), perP)
	p.call = product{}
}

// prepare readies p's operand for one product and sets p.call to it, and
// returns how many chunks a participant of its dispatch takes.
func (p *Packed) prepare(dst, a *Matrix, bias []float64, ep Epilogue, t1 bool) (perP int) {
	k, n := p.dims()
	rows := a.Rows // the product's strips are a's rows, or for aᵀ its columns
	if t1 {
		rows = a.Cols
	}
	b, w, panels, perP := p.operand(rows, rows*k*n)
	p.call = product{a: a, b: b, w: w, bias: bias, dst: dst, ep: ep, panels: panels, t1: t1}
	return perP
}

// product is one Packed product as a RangeKernel over output rows.
type product struct {
	a, b, w, dst *Matrix // one of b and w, which stands for bᵀ
	bias, panels []float64
	ep           Epilogue
	t1           bool
}

func (k *product) RunRange(lo, hi int) {
	if k.w != nil {
		matmulRangeT(k.a, k.w, k.dst, k.bias, k.panels, lo, hi)
	} else {
		matmulRange(k.a, k.b, k.dst, k.bias, k.panels, lo, hi, k.t1)
	}
	n := k.dst.Cols
	if k.ep.Act != nil {
		geluElems(k.dst, nil, k.ep.Keep, k.ep.Act, lo*n, hi*n)
	}
	if k.ep.Then != nil {
		k.ep.Then.RunRange(lo*n, hi*n)
	}
}
