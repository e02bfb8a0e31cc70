//silofuse:bitwise-ok dictionary tests pin exact error stats and allocation counts
package codec

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"silofuse/internal/tensor"
)

// repeatsRow reports whether two rows of m are bit-equal.
func repeatsRow(m *tensor.Matrix) bool {
	seen := map[string]bool{}
	for r := 0; r < m.Rows; r++ {
		var key []byte
		for _, v := range m.Row(r) {
			key = binary.LittleEndian.AppendUint64(key, math.Float64bits(v))
		}
		if seen[string(key)] {
			return true
		}
		seen[string(key)] = true
	}
	return false
}

// repeated returns a rows×cols matrix with exactly d distinct rows: the
// first d rows are drawn fresh, every later one copies one of them.
func repeated(rng *rand.Rand, rows, cols, d int) *tensor.Matrix {
	m := tensor.New(rows, cols).Randn(rng, 1)
	for r := d; r < rows; r++ {
		copy(m.Row(r), m.Row(rng.Intn(d)))
	}
	return m
}

// sameBits fails unless a and b hold the same shape and bit patterns.
func sameBits(t testing.TB, label string, a, b *tensor.Matrix) {
	t.Helper()
	if a.Rows != b.Rows || a.Cols != b.Cols {
		t.Fatalf("%s: %dx%d against %dx%d", label, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			t.Fatalf("%s: value %d is %v against %v", label, i, a.Data[i], b.Data[i])
		}
	}
}

// uncoded returns the dense or dictionary body a blob stands for: the blob
// itself unless it is in the coded form.
func uncoded(t testing.TB, id ID, blob []byte, rows, cols int) []byte {
	t.Helper()
	if len(blob) == id.EncodedSize(rows, cols) || blob[0] != 0 {
		return blob
	}
	body, err := id.uncode(blob, rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// expand rebuilds the dense blob a dictionary blob stands for.
func expand(t testing.TB, id ID, blob []byte, rows, cols int) []byte {
	t.Helper()
	d, err := id.checkDictionary(blob, rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	k, end := uvarintLen(d), uvarintLen(d)+id.EncodedSize(d, cols)
	at, width := k+id.tableSize(cols), id.rowSize(cols)
	dense := append([]byte(nil), blob[k:at]...)
	for r := 0; r < rows; r++ {
		o := index(blob[end:], r, indexWidth(d))
		dense = append(dense, blob[at+o*width:at+(o+1)*width]...)
	}
	return dense
}

// TestDictionaryGolden pins the layout on the smallest f64 case: three rows,
// two distinct — count, the distinct rows in first-occurrence order, one
// byte per row.
func TestDictionaryGolden(t *testing.T) {
	m := tensor.FromSlice(3, 1, []float64{1, 1, 2})
	blob, _, err := Encode(F64, m)
	if err != nil {
		t.Fatal(err)
	}
	want := "02" + "000000000000f03f" + "0000000000000040" + "000001"
	if got := hex.EncodeToString(blob); got != want {
		t.Fatalf("blob %s, want %s", got, want)
	}
	got, err := Decode(F64, blob, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "golden", got, m)
}

// TestDictionaryRoundTrip: under every codec, a tensor whose rows repeat
// decodes to exactly what its dense blob decodes to, the body the blob
// codes is the dictionary exactly when that is smaller, and its size is the
// layout's arithmetic. Rows are compared as encoded bytes, so q8 also folds
// rows that differ only below its quantum.
func TestDictionaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	nearlyEqual := repeated(rng, 64, 4, 5)
	for r := 5; r < 64; r++ {
		nearlyEqual.Row(r)[0] += 1e-9 * float64(r)
	}
	cases := map[string]*tensor.Matrix{
		"all equal":     repeated(rng, 50, 3, 1),
		"few distinct":  repeated(rng, 200, 6, 7),
		"none repeated": tensor.New(40, 5).Randn(rng, 1),
		"nearly equal":  nearlyEqual,
	}
	for name, m := range cases {
		for _, id := range []ID{F64, F32, Q8} {
			label := id.String() + "/" + name
			dense, st, err := encodeDense(id, m)
			if err != nil {
				t.Fatal(err)
			}
			blob, st2, err := Encode(id, m)
			if err != nil {
				t.Fatal(err)
			}
			if st != st2 {
				t.Fatalf("%s: error stats %+v, dense %+v", label, st2, st)
			}
			want, err := Decode(id, dense, m.Rows, m.Cols)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Decode(id, blob, m.Rows, m.Cols)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			sameBits(t, label, got, want)

			body := uncoded(t, id, blob, m.Rows, m.Cols)
			ord, d := distinct(dense[id.tableSize(m.Cols):], id.rowSize(m.Cols), m.Rows)
			dict := uvarintLen(d) + id.EncodedSize(d, m.Cols) + m.Rows*indexWidth(d)
			switch {
			case ord == nil && !bytes.Equal(body, dense):
				t.Fatalf("%s: no encoded row repeats, yet the body is not dense", label)
			case ord != nil && dict < len(dense) && len(body) != dict:
				t.Fatalf("%s: %d distinct rows, body %d bytes, want the %d-byte dictionary", label, d, len(body), dict)
			case ord != nil && dict >= len(dense) && !bytes.Equal(body, dense):
				t.Fatalf("%s: a %d-byte dictionary is not smaller than %d dense, yet was sent", label, dict, len(dense))
			}
		}
	}
	// q8 folds the nearly-equal rows (f64 cannot): 5 distinct encoded rows.
	blob, _, _ := Encode(Q8, nearlyEqual)
	if body := uncoded(t, Q8, blob, 64, 4); len(body) != 1+Q8.EncodedSize(5, 4)+64 {
		t.Fatalf("q8 nearly-equal rows: %d bytes, want the 5-row dictionary", len(body))
	}
}

// TestDictionaryIndexWidths walks the index width across its two steps:
// 256 distinct rows fit a byte, 257 need two, 65,537 need four.
func TestDictionaryIndexWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, c := range []struct{ d, rows, width int }{
		{256, 512, 1}, {257, 514, 2}, {65536, 131072, 2}, {65537, 196611, 4},
	} {
		m := repeated(rng, c.rows, 1, c.d)
		blob, _, err := Encode(F64, m)
		if err != nil {
			t.Fatal(err)
		}
		if want, body := uvarintLen(c.d)+8*c.d+c.rows*c.width, uncoded(t, F64, blob, c.rows, 1); len(body) != want {
			t.Fatalf("%d distinct of %d rows: %d bytes, want %d (%d-byte indices)", c.d, c.rows, len(body), want, c.width)
		}
		got, err := Decode(F64, blob, c.rows, 1)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, "index widths", got, m)
	}
}

// TestDecodeRefusesNonCanonical: every way a dictionary can differ from the
// one Encode writes for its tensor is an error, so no two blobs mean the
// same matrix. The valid blob is TestDictionaryGolden's.
func TestDecodeRefusesNonCanonical(t *testing.T) {
	one, two := "000000000000f03f", "0000000000000040"
	for name, c := range map[string]struct {
		hex        string
		rows, cols int
	}{
		"padded count":          {"8200" + one + two + "000001", 3, 1},
		"zero count":            {"00" + one + two + "000001", 3, 1},
		"count of every row":    {"03" + one + one + two + "000102", 3, 1},
		"index past the count":  {"02" + one + two + "000102", 3, 1},
		"out of order":          {"02" + one + two + "010001", 3, 1},
		"unused distinct row":   {"02" + one + two + "000000", 3, 1},
		"repeated distinct row": {"02" + one + one + "000100", 3, 1},
		"short index":           {"02" + one + two + "0000", 3, 1},
		"long index":            {"02" + one + two + "00000100", 3, 1},
		"wider than dense":      {"07" + one + two + one + two + one + two + one + "00010203040506" + "00", 8, 1},
		"two-byte index for 2":  {"02" + one + two + "000000000100", 3, 1},
	} {
		blob, _ := hex.DecodeString(c.hex)
		if m, err := Decode(F64, blob, c.rows, c.cols); err == nil {
			t.Errorf("%s: decoded to %v, want an error", name, m.Data)
		}
	}
}

// TestDictionaryExpansionBound: a dictionary is a claim of rows·cols values
// backed by far fewer bytes, so its f64 expansion must fit MaxBytes — the
// product taken in 128 bits — while a dense blob is bounded by its own
// length.
func TestDictionaryExpansionBound(t *testing.T) {
	rows, cols := 1<<20, 1<<7 // exactly MaxBytes expanded
	if err := F64.CheckSize(1<<21, rows, cols); err != nil {
		t.Fatalf("a dictionary expanding to MaxBytes: %v", err)
	}
	for _, dims := range [][2]int{{rows, cols + 1}, {rows + 1, cols}, {1 << 40, 1 << 40}, {math.MaxInt, 2}} {
		for _, id := range []ID{F64, F32, Q8} {
			if err := id.CheckSize(1<<21, dims[0], dims[1]); err == nil {
				t.Errorf("%s: a 2 MiB blob accepted for %dx%d", id, dims[0], dims[1])
			}
		}
	}
}

// TestEncodeRepeatFreeAllocs: a tensor with no repeated row costs its dense
// blob and the row hash table, and the coded blob when that is what is sent:
// planning the code lives on the stack.
func TestEncodeRepeatFreeAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, m := range []*tensor.Matrix{tensor.New(256, 16).Randn(rng, 1), tensor.New(3, 2).Randn(rng, 1)} {
		for _, id := range []ID{F64, F32, Q8} {
			blob, _, _ := Encode(id, m)
			want := 2.0
			if len(blob) < id.EncodedSize(m.Rows, m.Cols) {
				want++
			}
			if n := testing.AllocsPerRun(20, func() { Encode(id, m) }); n != want {
				t.Errorf("%s: Encode of a repeat-free %d-byte tensor allocates %v times, want %v", id, len(blob), n, want)
			}
		}
	}
}

// checkDecode is Decode's contract on arbitrary input: never a panic; a
// refusal is an error with no matrix; allocation stays within the bound
// Decode states; an accepted blob decodes to what its dense expansion
// decodes to and is exactly what Encode writes in its form — a coded blob
// re-codes from its body to the same bytes, and a dictionary body is the
// dictionary of its expansion.
func checkDecode(t testing.TB, id ID, blob []byte, rows, cols int) {
	t.Helper()
	if id.CheckSize(len(blob), rows, cols) == nil && rows*cols > 1<<20 {
		return // MaxBytes, not this test's memory, is the cap; TestDictionaryExpansionBound pins it
	}
	m, err := Decode(id, blob, rows, cols)
	// A coded blob stands for at most eight body bytes per byte, a bit per
	// symbol; the dictionary check's hash table costs at most 16 bytes per
	// distinct row of that body.
	budget := uint64(8*len(blob) + 16*8*len(blob) + 4<<10)
	if err == nil {
		budget += uint64(8 * rows * cols)
	}
	// TotalAlloc counts every goroutine's allocations, and the fuzzing
	// engine's run beside this one; the least of a few measurements is
	// Decode's own.
	got := uint64(math.MaxUint64)
	for try := 0; try < 4 && got > budget; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		Decode(id, blob, rows, cols)
		runtime.ReadMemStats(&after)
		got = min(got, after.TotalAlloc-before.TotalAlloc)
	}
	if got > budget {
		t.Fatalf("%s %dx%d from %d bytes (err %v): allocated %d, budget %d", id, rows, cols, len(blob), err, got, budget)
	}
	if err != nil {
		if m != nil {
			t.Fatalf("%s %dx%d: error %v beside a matrix", id, rows, cols, err)
		}
		return
	}
	if m.Rows != rows || m.Cols != cols {
		t.Fatalf("%s: decoded %dx%d, want %dx%d", id, m.Rows, m.Cols, rows, cols)
	}
	dense := id.EncodedSize(rows, cols)
	if len(blob) == dense {
		return
	}
	body := uncoded(t, id, blob, rows, cols)
	if len(body) != len(blob) {
		if again := id.code(body, rows, cols); !bytes.Equal(again, blob) {
			t.Fatalf("%s %dx%d: accepted coded %x, which re-codes to %x", id, rows, cols, blob, again)
		}
	}
	expansion := body
	if len(body) < dense {
		expansion = expand(t, id, body, rows, cols)
		if again := id.dictionary(expansion, rows, cols); !bytes.Equal(again, body) {
			t.Fatalf("%s %dx%d: accepted dictionary %x, which re-encodes to %x", id, rows, cols, body, again)
		}
	}
	want, err := Decode(id, expansion, rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, id.String()+" blob against its expansion", m, want)
}

// decodeSeed is one input of FuzzCodecDecode.
type decodeSeed struct {
	id         ID
	rows, cols int
	blob       []byte
}

// decodeSeeds derives hostile blobs from the dense, dictionary and coded
// blobs of all three codecs: each whole and cut at every section boundary;
// a dictionary also cut inside its row and index sections and with each bit
// of its count byte and first and last index bytes flipped; a coded blob
// also cut at each plane and table boundary and with each bit of its header
// fields and of the first and last byte of every table flipped.
func decodeSeeds() []decodeSeed {
	rng := rand.New(rand.NewSource(2404))
	mats := []*tensor.Matrix{
		repeated(rng, 12, 4, 3),    // a dictionary under every codec
		repeated(rng, 300, 4, 260), // two-byte indices; q8 stays dense
		tensor.New(5, 3).Randn(rng, 1),
		tensor.New(64, 3).Randn(rng, 1), // coded dense bodies
		repeated(rng, 400, 2, 5),        // coded dictionaries
	}
	var out []decodeSeed
	for _, id := range []ID{F64, F32, Q8} {
		for _, m := range mats {
			add := func(b []byte) { out = append(out, decodeSeed{id, m.Rows, m.Cols, b}) }
			flip := func(b []byte, at ...int) {
				for _, i := range at {
					for bit := 0; bit < 8; bit++ {
						flipped := append([]byte(nil), b...)
						flipped[i] ^= 1 << bit
						add(flipped)
					}
				}
			}
			dense, _, _ := encodeDense(id, m)
			bodies := [][]byte{dense}
			if dict := id.dictionary(dense, m.Rows, m.Cols); dict != nil {
				bodies = append(bodies, dict)
			}
			for _, body := range bodies {
				add(body)
				table, width := id.tableSize(m.Cols), id.rowSize(m.Cols)
				cuts := []int{0, table, table + width, len(body) - 1}
				if len(body) < len(dense) {
					d, _ := id.checkDictionary(body, m.Rows, m.Cols)
					k := uvarintLen(d)
					end, iw := k+id.EncodedSize(d, m.Cols), indexWidth(d)
					cuts = append(cuts, k, k+table, k+table+width, end-width, end, end+iw, len(body)-iw)
					flip(body, 0, end, end+iw-1, len(body)-iw, len(body)-1)
				}
				for _, n := range cuts {
					add(body[:n])
				}
				coded := id.code(body, m.Rows, m.Cols)
				if coded == nil {
					continue
				}
				add(coded)
				fields, starts, tables := codedSections(id, body, m.Rows, m.Cols)
				for _, n := range append([]int{1, fields - 1, fields, len(coded) - 1}, starts...) {
					add(coded[:n])
				}
				for i := range fields {
					flip(coded, i)
				}
				for _, tb := range tables {
					add(coded[:tb[1]])
					flip(coded, tb[0], tb[1]-1)
				}
			}
		}
	}
	return out
}

// FuzzCodecDecode holds Decode to checkDecode on any codec byte, shape and
// blob. Its seeds, which a plain `go test` runs too, are decodeSeeds.
func FuzzCodecDecode(f *testing.F) {
	for _, s := range decodeSeeds() {
		f.Add(uint8(s.id), uint32(s.rows), uint32(s.cols), s.blob)
	}
	f.Fuzz(func(t *testing.T, id uint8, rows, cols uint32, blob []byte) {
		checkDecode(t, ID(id), blob, int(rows), int(cols))
	})
}
