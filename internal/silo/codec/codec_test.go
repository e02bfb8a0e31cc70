package codec

import (
	"math"
	"math/rand"
	"testing"

	"silofuse/internal/tensor"
)

// randomMatrix fills an r×c matrix with mixed-scale values: standard
// normals, a heavy-tailed scale factor, and exact zeros.
func randomMatrix(rng *rand.Rand, r, c int) *tensor.Matrix {
	m := tensor.New(r, c)
	for i := range m.Data {
		switch rng.Intn(10) {
		case 0:
			m.Data[i] = 0
		case 1:
			m.Data[i] = rng.NormFloat64() * 1e6
		case 2:
			m.Data[i] = rng.NormFloat64() * 1e-6
		default:
			m.Data[i] = rng.NormFloat64()
		}
	}
	return m
}

func TestF64RoundTripBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		m := randomMatrix(rng, 1+rng.Intn(40), 1+rng.Intn(12))
		blob, st, err := Encode(F64, m)
		if err != nil {
			t.Fatal(err)
		}
		if st.Max != 0 || st.Mean != 0 { //silofuse:bitwise-ok lossless codec must report exactly zero error
			t.Fatalf("f64 reported error %+v, want zero", st)
		}
		if dense := 8 * len(m.Data); len(blob) > dense || len(blob) == dense && repeatsRow(m) {
			t.Fatalf("f64 blob %d bytes, dense %d, rows repeat: %v", len(blob), dense, repeatsRow(m))
		}
		got, err := Decode(F64, blob, m.Rows, m.Cols)
		if err != nil {
			t.Fatal(err)
		}
		for i := range m.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(m.Data[i]) {
				t.Fatalf("f64 round-trip not bit-exact at %d: %v != %v", i, got.Data[i], m.Data[i])
			}
		}
	}
}

func TestF32ErrorBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		m := randomMatrix(rng, 1+rng.Intn(40), 1+rng.Intn(12))
		blob, st, err := Encode(F32, m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(F32, blob, m.Rows, m.Cols)
		if err != nil {
			t.Fatal(err)
		}
		var maxErr, sumErr float64
		for i, v := range m.Data {
			d := math.Abs(got.Data[i] - v)
			// Round-to-nearest float32: at most half a ULP, i.e. 2^-24
			// relative for normal values.
			if d > math.Abs(v)*math.Exp2(-24)*1.000001 {
				t.Fatalf("f32 error %g at value %g exceeds half-ULP bound", d, v)
			}
			if d > maxErr {
				maxErr = d
			}
			sumErr += d
		}
		if st.Max < maxErr || st.Mean < sumErr/float64(len(m.Data))*0.999999 {
			t.Fatalf("reported ErrStats %+v below observed max %g mean %g", st, maxErr, sumErr/float64(len(m.Data)))
		}
	}
}

func TestF32ExactFor24BitMantissa(t *testing.T) {
	// Values representable in a 24-bit mantissa survive the round-trip
	// bit-exactly: small integers, dyadic fractions, powers of two.
	m := tensor.FromSlice(2, 4, []float64{0, 1, -3, 1048576, 0.5, -0.25, 1.5, 123456})
	blob, st, err := Encode(F32, m)
	if err != nil {
		t.Fatal(err)
	}
	if st.Max != 0 { //silofuse:bitwise-ok 24-bit-representable inputs must encode with exactly zero error
		t.Fatalf("expected zero error for 24-bit-mantissa values, got %+v", st)
	}
	got, err := Decode(F32, blob, m.Rows, m.Cols)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(m.Data[i]) {
			t.Fatalf("value %v not exact after f32 round-trip: got %v", m.Data[i], got.Data[i])
		}
	}
}

func TestQ8ErrorBoundPerColumn(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		rows, cols := 2+rng.Intn(60), 1+rng.Intn(8)
		m := randomMatrix(rng, rows, cols)
		blob, st, err := Encode(Q8, m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(Q8, blob, rows, cols)
		if err != nil {
			t.Fatal(err)
		}
		var maxErr float64
		for c := 0; c < cols; c++ {
			lo, hi := math.Inf(1), math.Inf(-1)
			for r := 0; r < rows; r++ {
				lo, hi = math.Min(lo, m.Data[r*cols+c]), math.Max(hi, m.Data[r*cols+c])
			}
			scale := (hi - lo) / 254
			bound := scale/2 + 1e-12
			for r := 0; r < rows; r++ {
				d := math.Abs(got.Data[r*cols+c] - m.Data[r*cols+c])
				if d > bound {
					t.Fatalf("q8 col %d error %g exceeds scale/2=%g", c, d, scale/2)
				}
				if d > maxErr {
					maxErr = d
				}
			}
		}
		if st.Max < maxErr {
			t.Fatalf("reported max error %g below observed %g", st.Max, maxErr)
		}
	}
}

func TestQ8ConstantColumnExact(t *testing.T) {
	m := tensor.New(7, 3)
	for r := 0; r < 7; r++ {
		m.Data[r*3+0] = 42.125
		m.Data[r*3+1] = -1e9
		m.Data[r*3+2] = 0
	}
	blob, st, err := Encode(Q8, m)
	if err != nil {
		t.Fatal(err)
	}
	if st.Max != 0 { //silofuse:bitwise-ok constant columns quantize with exactly zero error
		t.Fatalf("constant columns should encode exactly, got %+v", st)
	}
	got, err := Decode(Q8, blob, 7, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(m.Data[i]) {
			t.Fatalf("constant column value %v decoded as %v", m.Data[i], got.Data[i])
		}
	}
}

func TestEdgeShapes(t *testing.T) {
	shapes := []struct{ r, c int }{{0, 0}, {0, 5}, {5, 0}, {1, 1}, {1, 6}}
	rng := rand.New(rand.NewSource(4))
	for _, id := range []ID{F64, F32, Q8} {
		for _, sh := range shapes {
			m := randomMatrix(rng, sh.r, sh.c)
			blob, _, err := Encode(id, m)
			if err != nil {
				t.Fatalf("%s %dx%d: %v", id, sh.r, sh.c, err)
			}
			if len(blob) != id.EncodedSize(sh.r, sh.c) {
				t.Fatalf("%s %dx%d: blob %d bytes, EncodedSize %d", id, sh.r, sh.c, len(blob), id.EncodedSize(sh.r, sh.c))
			}
			got, err := Decode(id, blob, sh.r, sh.c)
			if err != nil {
				t.Fatal(err)
			}
			if got.Rows != sh.r || got.Cols != sh.c {
				t.Fatalf("%s: decoded shape %dx%d, want %dx%d", id, got.Rows, got.Cols, sh.r, sh.c)
			}
		}
	}
	// A nil matrix encodes like an empty one.
	blob, st, err := Encode(F64, nil)
	if err != nil || len(blob) != 0 || st.Max != 0 { //silofuse:bitwise-ok nil input has exactly zero error by definition
		t.Fatalf("nil matrix: blob=%d err=%v st=%+v", len(blob), err, st)
	}
}

func TestDecodeRejectsWrongLength(t *testing.T) {
	for _, id := range []ID{F64, F32, Q8} {
		if _, err := Decode(id, make([]byte, 3), 2, 2); err == nil {
			t.Fatalf("%s: expected length mismatch error", id)
		}
	}
	if _, err := Decode(F64, nil, -1, 2); err == nil {
		t.Fatal("expected negative-dimension error")
	}
	if _, err := Decode(None, nil, 0, 0); err == nil {
		t.Fatal("expected cannot-decode error for codec none")
	}
}

// TestDecodeRejectsHostileDims pins the overflow guard: 8·2³²·2³² wraps to 0
// and used to match an empty blob, handing the caller a matrix whose first
// index panics; a q8 table for 2⁶⁰ columns wraps the same way.
func TestDecodeRejectsHostileDims(t *testing.T) {
	if m, err := Decode(F64, nil, 1<<32, 1<<32); err == nil {
		t.Fatalf("Decode(F64, nil, 1<<32, 1<<32) = %dx%d matrix with %d values, want an error", m.Rows, m.Cols, len(m.Data))
	}
	for _, id := range []ID{F64, F32, Q8} {
		for _, d := range [][2]int{{1 << 32, 1 << 32}, {1 << 62, 8}, {0, 1 << 60}, {1 << 61, 1}, {math.MaxInt, math.MaxInt}} {
			if id != Q8 && d[0] == 0 {
				continue // an empty f64/f32 matrix may be any width
			}
			if _, err := Decode(id, nil, d[0], d[1]); err == nil {
				t.Errorf("%s: %dx%d decoded from an empty blob", id, d[0], d[1])
			}
		}
	}
}

func TestByName(t *testing.T) {
	cases := map[string]ID{"": F64, "f64": F64, "f32": F32, "q8": Q8}
	for name, want := range cases {
		id, err := ByName(name)
		if err != nil || id != want {
			t.Fatalf("ByName(%q) = %v, %v; want %v", name, id, err, want)
		}
	}
	for _, name := range []string{"f16", "none"} {
		if _, err := ByName(name); err == nil {
			t.Fatalf("ByName(%q): expected an unknown-codec error", name)
		}
	}
}
