// Package codec implements the precision-tiered wire encodings for dense
// float64 matrices crossing the silo bus. Values are framed as raw
// little-endian binary at one of three precision tiers:
//
//   - f64: 8 bytes/value, bit-lossless (Float64bits round-trip)
//   - f32: 4 bytes/value, IEEE round-to-nearest float32
//   - q8:  1 byte/value + a 16-byte scale/offset table per column
//     (affine int8 quantization; max error ≤ scale/2 per column)
//
// Encode reports the exact reconstruction error it introduces so transports
// can account the bytes-vs-error trade-off per message kind. Decode is a
// pure function of (id, blob, rows, cols): the tensor dimensions ride the
// frame header, never the blob.
//
// A blob has one of three forms, told apart by its length and first byte.
// The dense form is exactly EncodedSize(rows, cols) bytes: the q8 table,
// then every encoded row in order. When the encoded rows repeat, Encode
// writes the dictionary form instead, if and only if it is strictly smaller:
//
//	uvar  d      number of distinct encoded rows, 1 ≤ d < rows
//	...   rows   the dense blob of those d rows (q8: the whole tensor's
//	             table, then the rows), in order of first occurrence
//	...   index  one little-endian index per row, 1 byte wide when d ≤ 2⁸,
//	             2 when d ≤ 2¹⁶, else 4
//
// Rows are compared as encoded bytes, so the dictionary decodes to exactly
// what the dense blob decodes to under every codec. Decode accepts a
// dictionary only in the form Encode writes — canonical varint, every index
// below d, distinct rows pairwise different and numbered in order of first
// occurrence, every one of them used — and only when its dense expansion
// fits MaxBytes, so what decodes re-encodes to the same bytes and a short
// blob cannot claim a tensor no frame could carry.
//
// Whichever of the two Encode chose, it then Huffman-codes the body's byte
// planes where that pays, and sends the coded form when the whole is
// strictly smaller (entropy.go has its layout). A coded blob starts with a
// zero byte, which no dictionary does, so the f64 blob of a tensor is 8·n
// bytes only when neither its rows repeat nor its bytes code shorter.
//
// This package is the only place (together with internal/tensor's conversion
// kernels) where float64↔float32 conversions are legal; the silofuse-vet
// precisioncast rule enforces that boundary.
package codec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math"
	"math/bits"

	"silofuse/internal/tensor"
)

// ID identifies a wire codec. The zero value means "no tensor body": a
// control message, or an envelope still holding its native tensor.
type ID uint8

// Wire codec identifiers. The numeric values ride envelopes and checksum
// inputs; never renumber them.
const (
	None ID = 0 // no tensor body
	F64  ID = 1 // raw little-endian float64, lossless
	F32  ID = 2 // raw little-endian float32, round-to-nearest
	Q8   ID = 3 // per-column affine int8 quantization
)

// MaxBytes bounds the tensor a blob shorter than dense (a dictionary or a
// coded blob) may stand for: rows·cols·8 bytes, its f64 expansion, at most
// MaxBytes. It is the frame cap of the silo transports, so such a blob never
// decodes to more than a dense frame could have carried.
const MaxBytes = 1 << 30

// String returns the codec's canonical name.
func (id ID) String() string {
	switch id {
	case None:
		return "none"
	case F64:
		return "f64"
	case F32:
		return "f32"
	case Q8:
		return "q8"
	}
	return fmt.Sprintf("codec(%d)", uint8(id))
}

// ByName resolves a codec name. The empty string means f64, the lossless
// default tier.
func ByName(name string) (ID, error) {
	switch name {
	case "", "f64":
		return F64, nil
	case "f32":
		return F32, nil
	case "q8":
		return Q8, nil
	}
	return None, fmt.Errorf("codec: unknown wire codec %q (want f64, f32 or q8)", name)
}

// q8 layout constants: each column stores a float64 scale and offset, then
// values follow row-major as one signed byte each in [-127, 127].
const (
	q8TableBytes = 16  // scale + offset, 8 bytes each
	q8Levels     = 254 // span of the symmetric int8 range [-127, 127]
)

// EncodedSize returns the exact size in bytes of the dense blob for an
// rows×cols matrix under this codec; a dictionary or coded blob is shorter.
func (id ID) EncodedSize(rows, cols int) int {
	n := rows * cols
	switch id {
	case F64:
		return 8 * n
	case F32:
		return 4 * n
	case Q8:
		return q8TableBytes*cols + n
	}
	return 0
}

// tableSize is the part of a blob that is not rows (q8's scale/offset
// table); rowSize is one encoded row.
func (id ID) tableSize(cols int) int { return id.EncodedSize(0, cols) }
func (id ID) rowSize(cols int) int   { return id.EncodedSize(1, cols) - id.tableSize(cols) }

// CheckSize reports whether a blob of n bytes can be an rows×cols matrix
// under this codec (None and unknown ids carry no tensor): n is the dense
// size, or n is shorter, the dense expansion fits MaxBytes and n is at
// least the smallest coded blob — three header bytes, the q8 table and a bit
// per row. Dimensions arrive from the network, so the product is taken in
// 128 bits before EncodedSize multiplies it — 1<<32 × 1<<32 wraps to 0 and
// would otherwise match an empty blob. Decode checks the rest of a
// dictionary or coded blob.
func (id ID) CheckSize(n, rows, cols int) error {
	switch {
	case id == None || id > Q8:
		return fmt.Errorf("codec: %s carries no tensor", id)
	case rows < 0 || cols < 0:
		return fmt.Errorf("codec: negative dimensions %dx%d", rows, cols)
	}
	hi, values := bits.Mul64(uint64(rows), uint64(cols))
	if hi != 0 || values > max(uint64(n), MaxBytes/8) || (id == Q8 && cols > n/q8TableBytes) {
		return fmt.Errorf("codec: dimensions %dx%d exceed a %d-byte blob", rows, cols, n)
	}
	dense := id.EncodedSize(rows, cols)
	switch {
	case n == dense:
		return nil
	case n > dense:
		return fmt.Errorf("codec: %s blob for %dx%d is %d bytes, want %d", id, rows, cols, n, dense)
	case values > MaxBytes/8:
		return fmt.Errorf("codec: %d-byte %s blob for %dx%d expands past %d bytes", n, id, rows, cols, MaxBytes)
	case n < 3+id.tableSize(cols)+(rows+7)/8:
		return fmt.Errorf("codec: %s blob for %dx%d is %d bytes, shorter than any coded blob and than %d dense", id, rows, cols, n, dense)
	}
	return nil
}

// ErrStats is the reconstruction error an encode introduced: the maximum and
// mean absolute difference between the original values and what Decode will
// return. Both are zero for f64.
type ErrStats struct {
	Max  float64
	Mean float64
}

// Encode serializes m under the codec and reports the reconstruction error.
// A nil or empty matrix encodes to an empty (q8: table-only) blob. The blob
// is in the dictionary form when that is strictly smaller than the dense one,
// and in the coded form when that is strictly smaller again.
func Encode(id ID, m *tensor.Matrix) ([]byte, ErrStats, error) {
	blob, st, err := EncodeUncoded(id, m)
	if err == nil && m != nil {
		if coded := id.code(blob, m.Rows, m.Cols); coded != nil {
			blob = coded
		}
	}
	return blob, st, err
}

// EncodeUncoded is Encode without the coded form: the dense blob or the row
// dictionary. Its length is a function of the shape and of which rows repeat,
// never of how predictable the bytes are.
func EncodeUncoded(id ID, m *tensor.Matrix) ([]byte, ErrStats, error) {
	blob, st, err := encodeDense(id, m)
	if err == nil && m != nil {
		if dict := id.dictionary(blob, m.Rows, m.Cols); dict != nil {
			blob = dict
		}
	}
	return blob, st, err
}

// encodeDense is Encode's dense form.
func encodeDense(id ID, m *tensor.Matrix) ([]byte, ErrStats, error) {
	rows, cols := 0, 0
	var data []float64
	if m != nil {
		rows, cols, data = m.Rows, m.Cols, m.Data
	}
	blob := make([]byte, id.EncodedSize(rows, cols))
	var st ErrStats
	switch id {
	case F64:
		for i, v := range data {
			binary.LittleEndian.PutUint64(blob[8*i:], math.Float64bits(v))
		}
	case F32:
		var sum float64
		for i, v := range data {
			f := float32(v)
			binary.LittleEndian.PutUint32(blob[4*i:], math.Float32bits(f))
			d := math.Abs(v - float64(f))
			if d > st.Max {
				st.Max = d
			}
			sum += d
		}
		if len(data) > 0 {
			st.Mean = sum / float64(len(data))
		}
	case Q8:
		st = encodeQ8(blob, m, rows, cols)
	default:
		return nil, ErrStats{}, fmt.Errorf("codec: cannot encode with %s", id)
	}
	return blob, st, nil
}

// encodeQ8 fills blob (pre-sized by EncodedSize) with the per-column affine
// quantization: offset = (min+max)/2, scale = (max-min)/254, value byte =
// round((v-offset)/scale) clamped to [-127, 127]. Constant columns store
// scale 0 and decode exactly to the offset.
func encodeQ8(blob []byte, m *tensor.Matrix, rows, cols int) ErrStats {
	var st ErrStats
	var sum float64
	vals := blob[q8TableBytes*cols:]
	for c := 0; c < cols; c++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for r := 0; r < rows; r++ {
			v := m.Data[r*cols+c]
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		scale, offset := 0.0, 0.0
		if rows > 0 {
			offset = (lo + hi) / 2
			scale = (hi - lo) / q8Levels
		}
		binary.LittleEndian.PutUint64(blob[q8TableBytes*c:], math.Float64bits(scale))
		binary.LittleEndian.PutUint64(blob[q8TableBytes*c+8:], math.Float64bits(offset))
		for r := 0; r < rows; r++ {
			v := m.Data[r*cols+c]
			q := 0
			if scale != 0 { //silofuse:bitwise-ok scale is set to exactly 0 for constant columns, never computed
				q = int(math.RoundToEven((v - offset) / scale))
				if q < -127 {
					q = -127
				} else if q > 127 {
					q = 127
				}
			}
			vals[r*cols+c] = byte(int8(q))
			d := math.Abs(v - (offset + scale*float64(q)))
			if d > st.Max {
				st.Max = d
			}
			sum += d
		}
	}
	if rows*cols > 0 {
		st.Mean = sum / float64(rows*cols)
	}
	return st
}

// dictionary rewrites a dense blob in the dictionary form, or returns nil
// when no encoded row repeats or the dictionary would not be strictly
// smaller. A tensor with no repeated row costs one hash table beyond its
// dense blob.
func (id ID) dictionary(dense []byte, rows, cols int) []byte {
	table, width := id.tableSize(cols), id.rowSize(cols)
	if rows < 2 || width == 0 || rows*cols > MaxBytes/8 {
		return nil
	}
	ord, d := distinct(dense[table:], width, rows)
	if ord == nil {
		return nil
	}
	iw := indexWidth(d)
	size := uvarintLen(d) + table + d*width + rows*iw
	if size >= len(dense) {
		return nil
	}
	out := binary.AppendUvarint(make([]byte, 0, size), uint64(d))
	out = append(out, dense[:table]...)
	next := int32(0)
	for r, o := range ord {
		if o == next {
			out = append(out, dense[table+r*width:table+(r+1)*width]...)
			next++
		}
	}
	for _, o := range ord {
		switch iw {
		case 1:
			out = append(out, byte(o))
		case 2:
			out = binary.LittleEndian.AppendUint16(out, uint16(o))
		default:
			out = binary.LittleEndian.AppendUint32(out, uint32(o))
		}
	}
	return out
}

// rowSeed keys the row hash. It orders the probes of distinct's table and
// nothing else: which rows are equal is decided by comparing their bytes.
var rowSeed = maphash.MakeSeed()

// distinct numbers the n rows of body, each width bytes, by first
// occurrence: ord[r] is the number of the first row equal to row r, and d
// counts the distinct rows. When no row repeats it returns ord == nil,
// having allocated only its hash table, whose slots hold a first-occurrence
// row plus one.
func distinct(body []byte, width, n int) (ord []int32, d int) {
	slots := make([]int32, 1<<bits.Len(uint(2*n-1)))
	mask := uint64(len(slots) - 1)
	for r := 0; r < n; r++ {
		row := body[r*width : (r+1)*width]
		for i := maphash.Bytes(rowSeed, row) & mask; ; i = (i + 1) & mask {
			s := int(slots[i])
			if s == 0 {
				slots[i] = int32(r + 1)
				if ord != nil {
					ord[r] = int32(d)
				}
				d++
				break
			}
			if first := s - 1; bytes.Equal(row, body[first*width:(first+1)*width]) {
				if ord == nil {
					ord = make([]int32, n)
					for k := range r {
						ord[k] = int32(k)
					}
				}
				ord[r] = ord[first]
				break
			}
		}
	}
	return ord, d
}

// indexWidth is the byte width of a dictionary's indices for d distinct rows.
func indexWidth(d int) int {
	switch {
	case d <= 1<<8:
		return 1
	case d <= 1<<16:
		return 2
	}
	return 4
}

// index reads row r's entry from a dictionary's index section.
func index(idx []byte, r, iw int) int {
	switch iw {
	case 1:
		return int(idx[r])
	case 2:
		return int(binary.LittleEndian.Uint16(idx[2*r:]))
	}
	return int(binary.LittleEndian.Uint32(idx[4*r:]))
}

func uvarintLen(v int) int { return (bits.Len64(uint64(v)|1) + 6) / 7 }

// Decode reconstructs an rows×cols matrix from a blob produced by Encode
// with the same codec and dimensions, in any form. Anything else — a length
// that is no form, a dictionary or coded blob not in Encode's canonical form
// — is an error with no matrix. Allocation is bounded by the blob: a coded
// blob stands for at most eight body bytes per blob byte (every coded symbol
// costs a bit), and checking a dictionary takes a hash table of at most 16
// bytes per distinct row, so a refused blob allocates at most 136 bytes per
// byte (plus a constant), and an accepted one its rows·cols matrix on top.
func Decode(id ID, blob []byte, rows, cols int) (*tensor.Matrix, error) {
	if err := id.CheckSize(len(blob), rows, cols); err != nil {
		return nil, err
	}
	dense := id.EncodedSize(rows, cols)
	if len(blob) < dense && blob[0] == 0 {
		var err error
		if blob, err = id.uncode(blob, rows, cols); err != nil {
			return nil, err
		}
	}
	// A dense blob reads as d = rows distinct rows at offset 0, no index.
	d, k := rows, 0
	if len(blob) < dense {
		var err error
		if d, err = id.checkDictionary(blob, rows, cols); err != nil {
			return nil, err
		}
		k = uvarintLen(d)
	}
	// The d distinct rows decode into the first d rows of the matrix; each
	// row then copies its own, bottom up. Row r's index is at most r, and
	// rows above r are still the distinct rows when r is written.
	end := k + id.EncodedSize(d, cols)
	m := tensor.New(rows, cols)
	id.decodeDense(m.Data[:d*cols], blob[k:end], d, cols)
	if d < rows {
		idx, iw := blob[end:], indexWidth(d)
		for r := rows - 1; r > 0; r-- {
			o := index(idx, r, iw)
			copy(m.Data[r*cols:(r+1)*cols], m.Data[o*cols:(o+1)*cols])
		}
	}
	return m, nil
}

// checkDictionary validates a blob CheckSize has let through as shorter
// than dense, returning its distinct-row count d.
func (id ID) checkDictionary(blob []byte, rows, cols int) (int, error) {
	v, k := binary.Uvarint(blob)
	if k <= 0 || v == 0 || v >= uint64(rows) || k != uvarintLen(int(v)) {
		return 0, fmt.Errorf("codec: %s dictionary for %dx%d: bad distinct-row count", id, rows, cols)
	}
	d := int(v)
	end := k + id.EncodedSize(d, cols)
	iw := indexWidth(d)
	if want := end + rows*iw; len(blob) != want {
		return 0, fmt.Errorf("codec: %s dictionary of %d rows for %dx%d is %d bytes, want %d", id, d, rows, cols, len(blob), want)
	}
	idx, next := blob[end:], 0
	for r := 0; r < rows; r++ {
		o := index(idx, r, iw)
		if o > next || o >= d {
			return 0, fmt.Errorf("codec: %s dictionary for %dx%d: row %d names distinct row %d of %d out of first-occurrence order", id, rows, cols, r, o, d)
		}
		if o == next {
			next++
		}
	}
	if next != d {
		return 0, fmt.Errorf("codec: %s dictionary for %dx%d uses %d of its %d distinct rows", id, rows, cols, next, d)
	}
	width := id.rowSize(cols)
	if ord, _ := distinct(blob[k+id.tableSize(cols):end], width, d); ord != nil {
		return 0, fmt.Errorf("codec: %s dictionary for %dx%d repeats a distinct row", id, rows, cols)
	}
	return d, nil
}

// decodeDense fills dst (rows·cols values) from a dense blob of exactly
// EncodedSize(rows, cols) bytes.
func (id ID) decodeDense(dst []float64, blob []byte, rows, cols int) {
	switch id {
	case F64:
		for i := range dst {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(blob[8*i:]))
		}
	case F32:
		for i := range dst {
			dst[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(blob[4*i:])))
		}
	case Q8:
		vals := blob[q8TableBytes*cols:]
		for c := 0; c < cols; c++ {
			scale := math.Float64frombits(binary.LittleEndian.Uint64(blob[q8TableBytes*c:]))
			offset := math.Float64frombits(binary.LittleEndian.Uint64(blob[q8TableBytes*c+8:]))
			for r := 0; r < rows; r++ {
				dst[r*cols+c] = offset + scale*float64(int8(vals[r*cols+c]))
			}
		}
	}
}
