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
// frame header, never the blob, so the f64 blob is exactly 8·n bytes.
//
// This package is the only place (together with internal/tensor's conversion
// kernels) where float64↔float32 conversions are legal; the silofuse-vet
// precisioncast rule enforces that boundary.
package codec

import (
	"encoding/binary"
	"fmt"
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

// EncodedSize returns the exact blob size in bytes for an rows×cols matrix
// under this codec — the body length of the frame that carries it.
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

// CheckSize reports whether a blob of n bytes can be an rows×cols matrix
// under this codec. Dimensions arrive from the network, so the product is
// taken in 128 bits before EncodedSize multiplies it: every codec spends at
// least one byte per value (q8 another 16 per column), and dims that claim
// more values than the blob has bytes are rejected before their size can
// wrap — 1<<32 × 1<<32 wraps to 0 and would otherwise match an empty blob.
func (id ID) CheckSize(n, rows, cols int) error {
	if rows < 0 || cols < 0 {
		return fmt.Errorf("codec: negative dimensions %dx%d", rows, cols)
	}
	hi, values := bits.Mul64(uint64(rows), uint64(cols))
	if hi != 0 || values > uint64(n) || (id == Q8 && cols > n/q8TableBytes) {
		return fmt.Errorf("codec: dimensions %dx%d exceed a %d-byte blob", rows, cols, n)
	}
	if want := id.EncodedSize(rows, cols); n != want {
		return fmt.Errorf("codec: %s blob for %dx%d is %d bytes, want %d", id, rows, cols, n, want)
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
// A nil or empty matrix encodes to an empty (q8: table-only) blob.
func Encode(id ID, m *tensor.Matrix) ([]byte, ErrStats, error) {
	rows, cols := 0, 0
	var data []float64
	if m != nil {
		rows, cols, data = m.Rows, m.Cols, m.Data
	}
	blob := make([]byte, id.EncodedSize(rows, cols))
	switch id {
	case F64:
		for i, v := range data {
			binary.LittleEndian.PutUint64(blob[8*i:], math.Float64bits(v))
		}
		return blob, ErrStats{}, nil
	case F32:
		var st ErrStats
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
		return blob, st, nil
	case Q8:
		return encodeQ8(blob, m, rows, cols)
	}
	return nil, ErrStats{}, fmt.Errorf("codec: cannot encode with %s", id)
}

// encodeQ8 fills blob (pre-sized by EncodedSize) with the per-column affine
// quantization: offset = (min+max)/2, scale = (max-min)/254, value byte =
// round((v-offset)/scale) clamped to [-127, 127]. Constant columns store
// scale 0 and decode exactly to the offset.
func encodeQ8(blob []byte, m *tensor.Matrix, rows, cols int) ([]byte, ErrStats, error) {
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
	return blob, st, nil
}

// Decode reconstructs an rows×cols matrix from a blob produced by Encode
// with the same codec and dimensions. The blob length must match
// EncodedSize exactly.
func Decode(id ID, blob []byte, rows, cols int) (*tensor.Matrix, error) {
	if err := id.CheckSize(len(blob), rows, cols); err != nil {
		return nil, err
	}
	m := tensor.New(rows, cols)
	switch id {
	case F64:
		for i := range m.Data {
			m.Data[i] = math.Float64frombits(binary.LittleEndian.Uint64(blob[8*i:]))
		}
		return m, nil
	case F32:
		for i := range m.Data {
			m.Data[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(blob[4*i:])))
		}
		return m, nil
	case Q8:
		vals := blob[q8TableBytes*cols:]
		for c := 0; c < cols; c++ {
			scale := math.Float64frombits(binary.LittleEndian.Uint64(blob[q8TableBytes*c:]))
			offset := math.Float64frombits(binary.LittleEndian.Uint64(blob[q8TableBytes*c+8:]))
			for r := 0; r < rows; r++ {
				m.Data[r*cols+c] = offset + scale*float64(int8(vals[r*cols+c]))
			}
		}
		return m, nil
	}
	return nil, fmt.Errorf("codec: cannot decode with %s", id)
}
