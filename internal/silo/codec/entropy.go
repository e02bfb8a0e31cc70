package codec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// The coded form. Once Encode has chosen the dense body or the row
// dictionary, it codes each byte plane of that body with a canonical Huffman
// code where the coded plane is strictly shorter than the raw one, and keeps
// the result only when the whole blob is strictly shorter than the body:
//
//	uvar  0      marker: never a dictionary's d, so the two short forms differ in their first byte
//	uvar  d      distinct rows of the body; d = rows is the dense body
//	uvar  mask   bit p set: plane p is coded, clear: stored raw
//	...   table  q8's scale/offset table, raw
//	...   planes in order, each as its n raw bytes or coded
//
// Plane b < w (the value width: 8, 4 or 1 bytes) is byte b of each of the
// d·cols encoded values; a dictionary's index section adds plane w+b, byte b
// of each of the rows indices. A coded plane is its code lengths, four bits
// per symbol 0…255 — 0 absent, 1…maxCodeLen a length, nibbleRun followed by
// a byte r for r+4 absent symbols, low nibble first, an odd count padded
// with a zero nibble — then the n symbols' canonical codes, least
// significant bit first, padded with zero bits to a byte.
//
// The lengths are a function of the plane's histogram (codeLengths), so
// Decode rebuilds them from the plane it decoded and refuses a table that
// differs, a coded plane that is not shorter than raw, a raw plane that
// would have coded shorter, a length over maxCodeLen, a non-zero pad and a
// trailing byte: what decodes re-encodes to the same bytes.

// maxCodeLen bounds a code length, so a decoding table has at most 2¹¹
// entries.
const maxCodeLen = 11

// nibbleRun marks a run of at least four absent symbols in a code-length
// table.
const nibbleRun = 15

// maxPlanes is a body's most planes: eight bytes of an f64 value, four of a
// dictionary index.
const maxPlanes = 8 + 4

// plane is n bytes of a body, stride apart from off.
type plane struct{ off, stride, n int }

// planes lists the byte planes of a body holding d distinct rows of a
// rows×cols tensor (d = rows: the dense body). The bytes ahead of the first
// plane are the dictionary's count and the q8 table.
func (id ID) planes(d, rows, cols int) (ps [maxPlanes]plane, np int) {
	w := id.rowSize(1)
	head := id.tableSize(cols)
	if d < rows {
		head += uvarintLen(d)
	}
	for b := 0; b < w; b++ {
		ps[np] = plane{head + b, w, d * cols}
		np++
	}
	if d < rows {
		iw, at := indexWidth(d), head+d*id.rowSize(cols)
		for b := 0; b < iw; b++ {
			ps[np] = plane{at + b, iw, rows}
			np++
		}
	}
	return ps, np
}

// planeCode is how one plane is stored: its code lengths, their table and
// the coded size, table included. size < n means the plane is coded.
type planeCode struct {
	lens  [256]uint8
	table [128]byte
	tlen  int
	size  int
}

// count adds the bytes of plane p of body to hist.
func (p plane) count(body []byte, hist *[256]uint32) {
	for i, end := p.off, p.off+p.n*p.stride; i < end; i += p.stride {
		hist[body[i]]++
	}
}

// plan decides how a plane of n bytes with histogram hist is stored. The
// table's length depends only on which symbols occur, and no code spends
// fewer bits than the plane's entropy, so a plane whose table and entropy
// together reach n bytes (plus one for rounding) is stored raw without
// building its code: size = n.
func (pc *planeCode) plan(hist *[256]uint32, n int) {
	var present [4]uint64
	var s0, s1, s2, s3 float64 // Σ c·log₂c, four ways
	for s := 0; s < len(hist); s += 4 {
		c0, c1, c2, c3 := hist[s], hist[s+1], hist[s+2], hist[s+3]
		present[s>>6] |= (uint64(min(c0, 1)) | uint64(min(c1, 1))<<1 | uint64(min(c2, 1))<<2 | uint64(min(c3, 1))<<3) << (s & 63)
		s0 += xlog2(c0)
		s1 += xlog2(c1)
		s2 += xlog2(c2)
		s3 += xlog2(c3)
	}
	pc.tlen = tableLen(&present)
	entropy := xlog2(uint32(n)) - (s0 + s1 + s2 + s3)
	if float64(pc.tlen)+entropy/8 >= float64(n+1) {
		pc.size = n
		return
	}
	codeLengths(hist, &pc.lens)
	appendTable(pc.table[:0], &pc.lens)
	nbits := 0
	for s, c := range hist {
		nbits += int(c) * int(pc.lens[s])
	}
	pc.size = pc.tlen + (nbits+7)/8
}

// xlog2 is c·log₂c, from a table for the counts of small planes.
func xlog2(c uint32) float64 {
	if c < uint32(len(xlog2Table)) {
		return xlog2Table[c]
	}
	return float64(c) * math.Log2(float64(c))
}

// xlog2Table holds c·log₂c for c < 2¹⁰.
var xlog2Table = func() (t [1 << 10]float64) {
	for c := 2; c < len(t); c++ {
		t[c] = float64(c) * math.Log2(float64(c))
	}
	return t
}()

// tableLen is the length of appendTable's table for any code of the
// symbols in present: a nibble per present symbol and one per absent symbol
// among the first three of its run.
func tableLen(present *[4]uint64) int {
	nibbles := 0
	var prev uint64 // absent symbols of the word before; none before symbol 0
	for _, w := range present {
		z := ^w
		deep := (z<<1 | prev>>63) & (z<<2 | prev>>62) & (z<<3 | prev>>61)
		nibbles += bits.OnesCount64(w) + bits.OnesCount64(z&^deep)
		prev = z
	}
	return (nibbles + 1) / 2
}

// codeLengths sets lens to Huffman code lengths for hist, at most
// maxCodeLen bits and 0 for an absent symbol. Leaves are merged in order of
// (count, symbol), a leaf before an equal-weight internal node, so equal
// histograms give equal lengths. A lone symbol gets one bit: every coded
// symbol costs at least that. When a length exceeds maxCodeLen every count
// is halved, rounding up, and the code rebuilt.
func codeLengths(hist *[256]uint32, lens *[256]uint8) {
	*lens = [256]uint8{}
	freq := *hist
	for {
		var keys [256]uint64
		k := 0
		for s, f := range freq {
			keys[k] = uint64(f)<<8 | uint64(s)
			k += int(min(f, 1))
		}
		switch k {
		case 0:
			return
		case 1:
			lens[byte(keys[0])] = 1
			return
		}
		slices.Sort(keys[:k])
		// Nodes 0…k−1 are the leaves in order, k…2k−2 the internal nodes in
		// the order they are made, which is also nondecreasing weight.
		var weight [2*256 - 1]uint32
		var parent [2*256 - 1]int16
		for i := range k {
			weight[i] = uint32(keys[i] >> 8)
		}
		leaf, inner := 0, k
		for next := k; next < 2*k-1; next++ {
			for range 2 {
				pick := inner
				if leaf < k && (inner == next || weight[leaf] <= weight[inner]) {
					pick = leaf
					leaf++
				} else {
					inner++
				}
				weight[next] += weight[pick]
				parent[pick] = int16(next)
			}
		}
		var depth [2*256 - 1]uint8
		longest := uint8(0)
		for i := 2*k - 3; i >= 0; i-- {
			depth[i] = depth[parent[i]] + 1
			if i < k {
				longest = max(longest, depth[i])
			}
		}
		if longest <= maxCodeLen {
			for i := range k {
				lens[byte(keys[i])] = depth[i]
			}
			return
		}
		for s, f := range freq {
			freq[s] = (f + 1) / 2
		}
	}
}

// appendTable appends lens in the nibble layout of the package comment.
func appendTable(dst []byte, lens *[256]uint8) []byte {
	half := false
	put := func(v byte) {
		if half {
			dst[len(dst)-1] |= v << 4
		} else {
			dst = append(dst, v)
		}
		half = !half
	}
	for s := 0; s < len(lens); {
		if lens[s] != 0 {
			put(lens[s])
			s++
			continue
		}
		r := 1
		for s+r < len(lens) && lens[s+r] == 0 {
			r++
		}
		if r < 4 {
			for range r {
				put(0)
			}
		} else {
			put(nibbleRun)
			put(byte(r-4) & 15)
			put(byte(r-4) >> 4)
		}
		s += r
	}
	return dst
}

// readTable parses a code-length table from the front of src into lens and
// returns its length in bytes. Whether it is the table Encode writes is the
// caller's check.
func readTable(src []byte, lens *[256]uint8) (int, error) {
	*lens = [256]uint8{}
	nib := 0
	next := func() (byte, bool) {
		if nib/2 >= len(src) {
			return 0, false
		}
		v := src[nib/2] >> (4 * (nib & 1)) & 15
		nib++
		return v, true
	}
	for s := 0; s < len(lens); {
		v, ok := next()
		switch {
		case !ok:
			return 0, fmt.Errorf("truncated code-length table")
		case v == nibbleRun:
			lo, ok1 := next()
			hi, ok2 := next()
			if !ok1 || !ok2 {
				return 0, fmt.Errorf("truncated code-length table")
			}
			if s += int(lo|hi<<4) + 4; s > len(lens) {
				return 0, fmt.Errorf("absent-symbol run past symbol 255")
			}
		case v > maxCodeLen:
			return 0, fmt.Errorf("code length %d over %d", v, maxCodeLen)
		default:
			lens[s] = v
			s++
		}
	}
	return (nib + 1) / 2, nil
}

// canonicalCodes assigns canonical codes to lens — shorter codes first,
// equal lengths in symbol order — bit-reversed for a least-significant-first
// stream, and returns the longest length. Absent symbols keep their codes.
func canonicalCodes(lens *[256]uint8, codes *[256]uint16) int {
	var count [maxCodeLen + 1]int
	forPresent(lens, func(_ int, l uint8) { count[l]++ })
	var next [maxCodeLen + 1]int
	code, longest := 0, 0
	for l := 1; l <= maxCodeLen; l++ {
		code = (code + count[l-1]) << 1
		next[l] = code
		if count[l] > 0 {
			longest = l
		}
	}
	forPresent(lens, func(s int, l uint8) {
		codes[s] = bits.Reverse16(uint16(next[l])) >> (16 - l)
		next[l]++
	})
	return longest
}

// forPresent calls f for every symbol with a non-zero length, in order,
// skipping absent symbols eight at a time.
func forPresent(lens *[256]uint8, f func(s int, l uint8)) {
	for s := 0; s < len(lens); s += 8 {
		if binary.LittleEndian.Uint64(lens[s:]) == 0 {
			continue
		}
		for k, l := range lens[s : s+8] {
			if l != 0 {
				f(s+k, l)
			}
		}
	}
}

// appendCoded appends plane p of body under pc's code: the table, then the
// bit stream. dst has room for both.
func (pc *planeCode) appendCoded(dst, body []byte, p plane) []byte {
	dst = append(dst, pc.table[:pc.tlen]...)
	var codes [256]uint16
	canonicalCodes(&pc.lens, &codes)
	out, k := dst[len(dst):cap(dst)], 0
	var acc uint64
	nb := uint(0)
	for i, end := p.off, p.off+p.n*p.stride; i < end; i += p.stride {
		s := body[i]
		acc |= uint64(codes[s]) << (nb & 63)
		nb += uint(pc.lens[s])
		if nb >= 32 {
			binary.LittleEndian.PutUint32(out[k:], uint32(acc))
			k += 4
			acc >>= 32
			nb -= 32
		}
	}
	for ; nb > 0; nb -= min(nb, 8) {
		out[k] = byte(acc)
		k++
		acc >>= 8
	}
	return dst[:len(dst)+k]
}

// decodePlane fills plane p of body from the coded plane at the front of
// src, counting its symbols into hist, and returns its length in bytes,
// table included.
func decodePlane(body []byte, p plane, src []byte, hist *[256]uint32) (int, error) {
	var lens [256]uint8
	t, err := readTable(src, &lens)
	if err != nil {
		return 0, err
	}
	var codes [256]uint16
	longest := canonicalCodes(&lens, &codes)
	if longest == 0 {
		return 0, fmt.Errorf("code-length table without a symbol")
	}
	// table[c] holds symbol<<4 | length for every longest-bit window c
	// whose low bits are that symbol's code; 0 marks a window no code
	// starts.
	var table [1 << maxCodeLen]uint16
	forPresent(&lens, func(s int, l uint8) {
		for c := int(codes[s]); c < 1<<longest; c += 1 << l {
			table[c] = uint16(s)<<4 | uint16(l)
		}
	})
	src = src[t:]
	window := uint64(1)<<longest - 1
	var acc uint64
	nb, pos := uint(0), 0
	dst, stride := body[p.off:], p.stride
	for j := range p.n {
		if nb < maxCodeLen {
			// Past the end of src the stream reads as zeros; the length
			// check below refuses a plane that needed them.
			acc |= peek64(src, pos) << (nb & 63)
			pos += int(63-nb) >> 3
			nb |= 56
		}
		e := table[acc&window&(1<<maxCodeLen-1)]
		l, sym := uint(e&15), byte(e>>4)
		if l == 0 {
			return 0, fmt.Errorf("no code at symbol %d of %d", j, p.n)
		}
		dst[j*stride] = sym
		hist[sym]++
		acc >>= l & 63
		nb -= l
	}
	used := pos - int(nb>>3)
	if used > len(src) {
		return 0, fmt.Errorf("bit stream of %d bytes is %d short", len(src), used-len(src))
	}
	if acc&(1<<(nb&7)-1) != 0 {
		return 0, fmt.Errorf("non-zero padding bits")
	}
	return t + used, nil
}

// peek64 reads eight bytes of src at pos, little-endian, zero past its end.
func peek64(src []byte, pos int) uint64 {
	if pos+8 <= len(src) {
		return binary.LittleEndian.Uint64(src[pos:])
	}
	var v uint64
	for k := pos; k < len(src); k++ {
		v |= uint64(src[k]) << (8 * (k - pos))
	}
	return v
}

// code rewrites a dense or dictionary body of a rows×cols tensor in the
// coded form, or returns nil when that would not be strictly shorter.
func (id ID) code(body []byte, rows, cols int) []byte {
	d := rows
	if len(body) < id.EncodedSize(rows, cols) {
		v, _ := binary.Uvarint(body)
		d = int(v)
	}
	ps, np := id.planes(d, rows, cols)
	var pcs [maxPlanes]planeCode
	mask, size := 0, 1+uvarintLen(d)+id.tableSize(cols)
	for i, p := range ps[:np] {
		var hist [256]uint32
		p.count(body, &hist)
		pc := &pcs[i]
		pc.plan(&hist, p.n)
		if pc.size < p.n {
			mask |= 1 << i
			size += pc.size
		} else {
			size += p.n
		}
	}
	if size += uvarintLen(mask); size >= len(body) {
		return nil
	}
	out := make([]byte, 0, size)
	out = append(out, 0)
	out = binary.AppendUvarint(out, uint64(d))
	out = binary.AppendUvarint(out, uint64(mask))
	out = append(out, body[ps[0].off-id.tableSize(cols):ps[0].off]...)
	for i, p := range ps[:np] {
		if mask>>i&1 != 0 {
			out = pcs[i].appendCoded(out, body, p)
			continue
		}
		for j, end := p.off, p.off+p.n*p.stride; j < end; j += p.stride {
			out = append(out, body[j])
		}
	}
	return out
}

// uncode rebuilds the body a coded blob stands for; CheckSize has passed
// the blob, and its first byte is the marker. It allocates the body only
// once the blob is long enough for it at one bit per coded symbol, so at
// most eight bytes per blob byte, and refuses every blob code would not have
// written for the body it rebuilds.
func (id ID) uncode(blob []byte, rows, cols int) ([]byte, error) {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("codec: coded %s blob for %dx%d: %s", id, rows, cols, fmt.Sprintf(format, args...))
	}
	at := 1
	field := func() (int, bool) {
		v, k := binary.Uvarint(blob[at:])
		if k <= 0 || k != uvarintLen(int(v)) || v > MaxBytes {
			return 0, false
		}
		at += k
		return int(v), true
	}
	d, ok := field()
	if !ok || d < 1 || d > rows {
		return nil, bad("bad distinct-row count")
	}
	mask, ok := field()
	ps, np := id.planes(d, rows, cols)
	if !ok || mask >= 1<<np {
		return nil, bad("bad plane mask")
	}
	dense, table := id.EncodedSize(rows, cols), id.tableSize(cols)
	size := dense
	if d < rows {
		if size = uvarintLen(d) + id.EncodedSize(d, cols) + rows*indexWidth(d); size >= dense {
			return nil, bad("a %d-row dictionary is not shorter than dense", d)
		}
	}
	if len(blob) >= size {
		return nil, bad("%d bytes, not shorter than the %d-byte body", len(blob), size)
	}
	need := at + table
	for i, p := range ps[:np] {
		if mask>>i&1 != 0 {
			need += (p.n + 7) / 8
		} else {
			need += p.n
		}
	}
	if len(blob) < need {
		return nil, bad("%d bytes, too short for its planes at a bit per coded symbol", len(blob))
	}
	body := make([]byte, size)
	if d < rows {
		binary.PutUvarint(body, uint64(d))
	}
	copy(body[ps[0].off-table:], blob[at:at+table])
	at += table
	var pc planeCode
	for i, p := range ps[:np] {
		var hist [256]uint32
		coded, n := mask>>i&1 != 0, p.n
		if coded {
			var err error
			if n, err = decodePlane(body, p, blob[at:], &hist); err != nil {
				return nil, bad("plane %d: %v", i, err)
			}
		} else {
			if len(blob)-at < n {
				return nil, bad("plane %d truncated", i)
			}
			for j, b := range blob[at : at+n] {
				body[p.off+j*p.stride] = b
				hist[b]++
			}
		}
		pc.plan(&hist, p.n)
		if (pc.size < p.n) != coded || coded && (pc.size != n || !bytes.Equal(pc.table[:pc.tlen], blob[at:at+pc.tlen])) {
			return nil, bad("plane %d is not stored as its histogram codes it", i)
		}
		at += n
	}
	if at != len(blob) {
		return nil, bad("%d trailing bytes", len(blob)-at)
	}
	return body, nil
}
