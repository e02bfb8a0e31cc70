//silofuse:bitwise-ok coded-form tests pin exact code lengths, Kraft sums and decoded bits
package codec

import (
	"bytes"
	"container/heap"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"silofuse/internal/tensor"
)

// codedSections walks the coded form of body as code writes it: the end of
// the three uvarint header fields, where each plane starts, and the start
// and end of each coded plane's code-length table.
func codedSections(id ID, body []byte, rows, cols int) (fields int, starts []int, tables [][2]int) {
	d := rows
	if len(body) < id.EncodedSize(rows, cols) {
		v, _ := binary.Uvarint(body)
		d = int(v)
	}
	ps, np := id.planes(d, rows, cols)
	pcs := make([]planeCode, np)
	mask := 0
	for i, p := range ps[:np] {
		var hist [256]uint32
		p.count(body, &hist)
		if pcs[i].plan(&hist, p.n); pcs[i].size < p.n {
			mask |= 1 << i
		}
	}
	fields = 1 + uvarintLen(d) + uvarintLen(mask)
	at := fields + id.tableSize(cols)
	for i, p := range ps[:np] {
		starts = append(starts, at)
		if mask>>i&1 != 0 {
			tables = append(tables, [2]int{at, at + pcs[i].tlen})
			at += pcs[i].size
		} else {
			at += p.n
		}
	}
	return fields, starts, tables
}

// assemble writes body in the coded form with the given planes coded, each
// under lens[i] when that is set and its histogram's code otherwise, whether
// or not that is shorter: the writer code would be without its choices.
func assemble(id ID, body []byte, rows, cols, mask int, lens map[int]*[256]uint8) []byte {
	d := rows
	if len(body) < id.EncodedSize(rows, cols) {
		v, _ := binary.Uvarint(body)
		d = int(v)
	}
	ps, np := id.planes(d, rows, cols)
	out := binary.AppendUvarint([]byte{0}, uint64(d))
	out = binary.AppendUvarint(out, uint64(mask))
	out = append(out, body[ps[0].off-id.tableSize(cols):ps[0].off]...)
	for i, p := range ps[:np] {
		if mask>>i&1 == 0 {
			for j := range p.n {
				out = append(out, body[p.off+j*p.stride])
			}
			continue
		}
		var pc planeCode
		var hist [256]uint32
		p.count(body, &hist)
		pc.plan(&hist, p.n)
		if l := lens[i]; l != nil {
			pc.lens = *l
			pc.tlen = len(appendTable(pc.table[:0], &pc.lens))
		}
		out = pc.appendCoded(slices.Grow(out, 128+2*p.n), body, p)
	}
	return out
}

// TestCodedGolden pins one coded blob per codec, small enough to read
// (tables are nibbles, low first):
//
//   - f64, the dense body of 1…8: mask 0xbf codes planes 0–5, the all-zero
//     low mantissa bytes, at one bit per value (table f1 fb: symbol 0 has
//     length 1, then a run of 251+4 absent symbols; stream 00) and plane 7,
//     the sign and exponent byte 3f 40 40 …, at one bit per value (table
//     bf 13 f1 bb: 63 absent, 0x3f and 0x40 length 1, 191 absent; stream
//     fe); plane 6, 1…8's distinct top mantissa bytes, stays raw;
//   - f32, the dictionary of 1, 2, 1, 2, …: d = 2, mask 0x10 — its two-value
//     planes stay raw (a coded one costs at least three bytes), the index
//     plane is coded at a bit per row (table 11 af 0f: symbols 0 and 1
//     length 1, 254 absent, a pad nibble; stream aaaa);
//   - q8, the dense body of −1, 0, 1, …: the scale/offset table raw, then the
//     value plane's symbols 0x00 and 0x7f at two bits and 0x81 at one —
//     equal counts, so the last symbol gets the shorter code.
func TestCodedGolden(t *testing.T) {
	seq := func(rows int, f func(r int) float64) *tensor.Matrix {
		m := tensor.New(rows, 1)
		for r := range m.Data {
			m.Data[r] = f(r)
		}
		return m
	}
	for _, c := range []struct {
		id  ID
		m   *tensor.Matrix
		hex string
	}{
		{F64, seq(8, func(r int) float64 { return float64(r + 1) }),
			"00" + "08" + "bf01" +
				"f1fb00" + "f1fb00" + "f1fb00" + "f1fb00" + "f1fb00" + "f1fb00" +
				"f000081014181c20" +
				"bf13f1bb" + "fe"},
		{F32, seq(16, func(r int) float64 { return float64(r%2 + 1) }),
			"00" + "02" + "10" +
				"0000" + "0000" + "8000" + "3f40" +
				"11af0f" + "aaaa"},
		{Q8, seq(24, func(r int) float64 { return float64(r%3 - 1) }),
			"00" + "18" + "01" +
				"080402814020803f" + "0000000000000000" +
				"f27a02f17a" + "5a6badb5d6"},
	} {
		blob, _, err := Encode(c.id, c.m)
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(blob); got != c.hex {
			t.Errorf("%s: blob %s, want %s", c.id, got, c.hex)
		}
		got, err := Decode(c.id, blob, c.m.Rows, c.m.Cols)
		if err != nil {
			t.Fatalf("%s: %v", c.id, err)
		}
		dense, _, _ := encodeDense(c.id, c.m)
		want, _ := Decode(c.id, dense, c.m.Rows, c.m.Cols)
		sameBits(t, c.id.String()+" golden", got, want)
	}
}

// TestCodedRoundTrip: under every codec and for tensors whose bytes are
// structured in different ways, the blob is the coded form of its body
// exactly when that is strictly shorter, every coded plane is strictly
// shorter than raw, and the blob decodes to what the dense blob decodes to.
func TestCodedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	ints := tensor.New(300, 5)
	for i := range ints.Data {
		ints.Data[i] = float64(rng.Intn(7) - 3)
	}
	bits := tensor.New(200, 3)
	for i := range bits.Data {
		bits.Data[i] = math.Float64frombits(rng.Uint64())
	}
	cases := map[string]*tensor.Matrix{
		"normal":       tensor.New(500, 8).Randn(rng, 1),
		"small ints":   ints,
		"random bits":  bits,
		"few distinct": repeated(rng, 600, 3, 40),
		"many rows":    repeated(rng, 3000, 1, 700),
		"constant":     tensor.New(100, 4),
		"one row":      tensor.New(1, 64).Randn(rng, 1),
	}
	codedSome := map[ID]bool{}
	for name, m := range cases {
		for _, id := range []ID{F64, F32, Q8} {
			label := id.String() + "/" + name
			blob, _, err := Encode(id, m)
			if err != nil {
				t.Fatal(err)
			}
			dense, _, _ := encodeDense(id, m)
			body := dense
			if dict := id.dictionary(dense, m.Rows, m.Cols); dict != nil {
				body = dict
			}
			coded := id.code(body, m.Rows, m.Cols)
			switch {
			case coded == nil && !bytes.Equal(blob, body):
				t.Fatalf("%s: nothing codes shorter, yet the blob is not the body", label)
			case coded != nil && (!bytes.Equal(blob, coded) || len(coded) >= len(body)):
				t.Fatalf("%s: %d-byte blob, want the %d-byte coded form of a %d-byte body", label, len(blob), len(coded), len(body))
			}
			if coded != nil {
				codedSome[id] = true
				if _, _, tables := codedSections(id, body, m.Rows, m.Cols); len(tables) == 0 {
					t.Fatalf("%s: coded with no coded plane", label)
				}
			}
			got, err := Decode(id, blob, m.Rows, m.Cols)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			want, _ := Decode(id, dense, m.Rows, m.Cols)
			sameBits(t, label, got, want)
			checkDecode(t, id, blob, m.Rows, m.Cols)
		}
	}
	for _, id := range []ID{F64, F32, Q8} {
		if !codedSome[id] {
			t.Errorf("%s: no case was coded", id)
		}
	}
}

// huffmanCost is an independent reference: the cost in bits of an optimal
// prefix code for hist by the textbook heap construction (the sum of every
// merged weight), and the depth of the tree it built.
func huffmanCost(hist *[256]uint32) (cost, depth int) {
	h := &nodeHeap{}
	for _, f := range hist {
		if f > 0 {
			*h = append(*h, [2]int{int(f), 0})
		}
	}
	if h.Len() == 1 {
		return (*h)[0][0], 1
	}
	heap.Init(h)
	for h.Len() > 1 {
		a, b := heap.Pop(h).([2]int), heap.Pop(h).([2]int)
		cost += a[0] + b[0]
		heap.Push(h, [2]int{a[0] + b[0], max(a[1], b[1]) + 1})
	}
	return cost, (*h)[0][1]
}

// nodeHeap holds (weight, depth) pairs, lightest first.
type nodeHeap [][2]int

func (h nodeHeap) Len() int           { return len(h) }
func (h nodeHeap) Less(i, j int) bool { return h[i][0] < h[j][0] }
func (h nodeHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x any)        { *h = append(*h, x.([2]int)) }
func (h *nodeHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// TestCodeLengths: codeLengths is an optimal prefix code (against the heap
// construction) whenever no length passes maxCodeLen, a complete one (Kraft
// sum exactly 1) with at least two symbols, limited to maxCodeLen bits when
// the optimum is longer, and breaks ties by symbol.
func TestCodeLengths(t *testing.T) {
	kraft := func(lens *[256]uint8) float64 {
		sum := 0.0
		for _, l := range lens {
			if l != 0 {
				sum += math.Ldexp(1, -int(l))
			}
		}
		return sum
	}
	cost := func(hist *[256]uint32, lens *[256]uint8) int {
		c := 0
		for s, f := range hist {
			c += int(f) * int(lens[s])
		}
		return c
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		var hist [256]uint32
		k := 2 + rng.Intn(255)
		for range k {
			hist[rng.Intn(256)] += uint32(1 + rng.Intn(1+rng.Intn(1000)))
		}
		var lens [256]uint8
		codeLengths(&hist, &lens)
		longest, symbols := uint8(0), 0
		for s, l := range lens {
			if (l == 0) != (hist[s] == 0) {
				t.Fatalf("trial %d: symbol %d of count %d has length %d", trial, s, hist[s], l)
			}
			longest = max(longest, l)
			symbols += min(int(l), 1)
		}
		if symbols > 1 && kraft(&lens) != 1 {
			t.Fatalf("trial %d: Kraft sum %v, want a complete code", trial, kraft(&lens))
		}
		// Taking a leaf before an equal internal node builds the shallowest
		// optimal tree, so when the heap's tree fits the limit ours does.
		best, depth := huffmanCost(&hist)
		if got := cost(&hist, &lens); got < best || depth <= maxCodeLen && got != best || longest > maxCodeLen {
			t.Fatalf("trial %d: cost %d bits and %d-bit codes, optimum %d at depth %d", trial, got, longest, best, depth)
		}
	}

	// Fibonacci counts make the optimal code as deep as it gets: 19 symbols
	// would need 18 bits.
	var fib [256]uint32
	fib[0], fib[1] = 1, 1
	for s := 2; s < 19; s++ {
		fib[s] = fib[s-1] + fib[s-2]
	}
	var lens [256]uint8
	codeLengths(&fib, &lens)
	for s, l := range lens {
		if l > maxCodeLen || (l == 0) != (fib[s] == 0) {
			t.Fatalf("Fibonacci counts: symbol %d has length %d, limit %d", s, l, maxCodeLen)
		}
	}
	if kraft(&lens) > 1 {
		t.Fatalf("Fibonacci counts: Kraft sum %v over 1", kraft(&lens))
	}

	// Equal counts: leaves merge in symbol order, so the last symbol is left
	// for the shorter code; a lone symbol costs one bit.
	var three [256]uint32
	three[7], three[9], three[200] = 5, 5, 5
	codeLengths(&three, &lens)
	if lens[7] != 2 || lens[9] != 2 || lens[200] != 1 {
		t.Fatalf("equal counts: lengths %d %d %d, want 2 2 1", lens[7], lens[9], lens[200])
	}
	var one [256]uint32
	one[42] = 1000
	if codeLengths(&one, &lens); lens[42] != 1 {
		t.Fatalf("lone symbol: length %d, want 1", lens[42])
	}
}

// TestCodeTableRoundTrip: the code-length table reads back as written, for
// sparse, dense and run-heavy length vectors, and tableLen predicts its
// length from the symbols present.
func TestCodeTableRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 100; trial++ {
		var lens [256]uint8
		for range rng.Intn(257) {
			lens[rng.Intn(256)] = uint8(1 + rng.Intn(maxCodeLen))
		}
		table := appendTable(nil, &lens)
		var present [4]uint64
		for s, l := range lens {
			if l != 0 {
				present[s/64] |= 1 << (s % 64)
			}
		}
		if len(table) > 128 || tableLen(&present) != len(table) {
			t.Fatalf("trial %d: %d-byte table, tableLen %d, at most 128", trial, len(table), tableLen(&present))
		}
		var back [256]uint8
		n, err := readTable(append(table, 0xff), &back)
		if err != nil || n != len(table) || back != lens {
			t.Fatalf("trial %d: read %d of %d bytes (%v), lengths equal: %v", trial, n, len(table), err, back == lens)
		}
	}
}

// TestDecodeRefusesNonCanonicalCoded: every way a coded blob can differ from
// the one Encode writes for its body is an error. The body is the f32
// dictionary of 1, 2, 3, 4, 1, 2, …: its two all-zero value planes and its
// index plane code shorter (mask 0x13), the other two value planes do not.
func TestDecodeRefusesNonCanonicalCoded(t *testing.T) {
	m := tensor.New(64, 1)
	for r := range m.Data {
		m.Data[r] = float64(r%4 + 1)
	}
	dense, _, _ := encodeDense(F32, m)
	body := F32.dictionary(dense, 64, 1)
	good := F32.code(body, 64, 1)
	if good == nil || good[1] != 4 || good[2] != 0x13 {
		t.Fatalf("the test body codes to %x, want d = 4 and mask 0x13", good)
	}
	if _, err := Decode(F32, good, 64, 1); err != nil {
		t.Fatal(err)
	}
	if same := assemble(F32, body, 64, 1, 0x13, nil); !bytes.Equal(same, good) {
		t.Fatalf("assemble with code's own choices writes %x, code %x", same, good)
	}
	_, _, tables := codedSections(F32, body, 64, 1)
	index := tables[len(tables)-1]
	// A complete code, but not the histogram's: four equally frequent
	// indices want two bits each.
	worse := [256]uint8{0: 1, 1: 2, 2: 3, 3: 3}
	with := func(prefix []byte, at int, b ...byte) []byte {
		out := append(append([]byte(nil), prefix[:at]...), b...)
		return append(out, prefix[at+len(b):]...)
	}
	for name, blob := range map[string][]byte{
		"raw plane that codes shorter": assemble(F32, body, 64, 1, 0x12, nil),
		"suboptimal code lengths":      assemble(F32, body, 64, 1, 0x13, map[int]*[256]uint8{4: &worse}),
		"trailing byte":                append(append([]byte(nil), good...), 0),
		"zero mask":                    with(good, 2, 0),
		"mask past the planes":         with(good, 2, 0x33),
		"zero distinct rows":           with(good, 1, 0),
		"more distinct rows than rows": with(good, 1, 65),
		"padded count":                 append([]byte{0, 0x84, 0x00}, good[2:]...),
		"truncated table":              good[:index[1]-1],
		"code length over the limit":   with(good, index[0], 0xcc),
	} {
		if got, err := Decode(F32, blob, 64, 1); err == nil {
			t.Errorf("%s: %x decoded to %v, want an error", name, blob, got.Data)
		}
	}

	// Every plane chosen as code would choose, yet the whole is not shorter
	// than the body: the index plane of a 5-row, 2-distinct dictionary codes
	// one byte shorter, and the header costs three.
	short := tensor.FromSlice(5, 1, []float64{1, 2, 1, 1, 1})
	sd, _, _ := encodeDense(F64, short)
	sb := F64.dictionary(sd, 5, 1)
	if F64.code(sb, 5, 1) != nil {
		t.Fatal("the 5-row dictionary codes shorter")
	}
	if long := assemble(F64, sb, 5, 1, 1<<8, nil); len(long) <= len(sb) || len(long) >= len(sd) {
		t.Fatalf("%d-byte coded blob of a %d-byte dictionary, %d dense", len(long), len(sb), len(sd))
	} else if _, err := Decode(F64, long, 5, 1); err == nil {
		t.Error("a coded blob longer than its dictionary: decoded, want an error")
	}

	// A dictionary no shorter than dense, coded shorter than dense: a
	// one-column q8 row is one byte, so its dictionary never pays. The
	// blob: d = 2, mask 0x02 (the index plane), the scale/offset table, the
	// two distinct rows raw, the index 0, 1, 0, 1, … at a bit per row.
	q := tensor.New(40, 1)
	for r := range q.Data {
		q.Data[r] = float64(r % 2)
	}
	qd, _, _ := encodeDense(Q8, q)
	qb := append(append([]byte{0, 2, 2}, qd[:18]...), 0x11, 0xaf, 0x0f, 0xaa, 0xaa, 0xaa, 0xaa, 0xaa)
	if _, err := Decode(Q8, qb, 40, 1); err == nil {
		t.Error("a coded dictionary no shorter than dense: decoded, want an error")
	}

	// Non-zero pad bits: the one-bit index stream of a 10-row, 2-distinct
	// dictionary ends two bits into its last byte.
	ten := tensor.FromSlice(10, 1, []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 2})
	td, _, _ := encodeDense(F64, ten)
	tb := F64.code(F64.dictionary(td, 10, 1), 10, 1)
	if tb == nil || tb[len(tb)-1] != 0x02 {
		t.Fatalf("the 10-row dictionary codes to %x, want a last byte of 02", tb)
	}
	if _, err := Decode(F64, tb, 10, 1); err != nil {
		t.Fatal(err)
	}
	for bit := 2; bit < 8; bit++ {
		if _, err := Decode(F64, with(tb, len(tb)-1, tb[len(tb)-1]^1<<bit), 10, 1); err == nil {
			t.Errorf("pad bit %d set: decoded, want an error", bit)
		}
	}
}

// TestCodedExpansionBound: every coded symbol costs at least a bit, so a
// short blob cannot claim a large tensor — Decode refuses it before
// allocating the body it would stand for.
func TestCodedExpansionBound(t *testing.T) {
	// 30 bytes claiming 2²⁷ f64 values (a GiB): one row, mask 1.
	blob := append([]byte{0, 1, 1}, make([]byte, 27)...)
	for _, dims := range [][2]int{{1, 1 << 27}, {1 << 7, 1 << 20}, {240, 1}} {
		if m, err := Decode(F64, blob, dims[0], dims[1]); err == nil {
			t.Fatalf("%dx%d from 30 bytes: decoded %d values", dims[0], dims[1], len(m.Data))
		}
		// The least of a few measurements is Decode's own (TotalAlloc counts
		// every goroutine).
		got := uint64(math.MaxUint64)
		for range 4 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			Decode(F64, blob, dims[0], dims[1])
			runtime.ReadMemStats(&after)
			got = min(got, after.TotalAlloc-before.TotalAlloc)
		}
		if got > 4<<10 {
			t.Errorf("%dx%d from 30 bytes: refused after allocating %d bytes", dims[0], dims[1], got)
		}
	}
	if err := F64.CheckSize(2, 100, 1); err == nil {
		t.Error("a 2-byte blob accepted for 100 rows, shorter than a bit per row")
	}
}

// TestCodedEncodeAllocs: coding adds exactly one allocation, the coded blob.
func TestCodedEncodeAllocs(t *testing.T) {
	m := repeated(rand.New(rand.NewSource(4)), 2000, 4, 90)
	blob, _, _ := Encode(F64, m)
	if len(blob) == 0 || blob[0] != 0 {
		t.Fatal("the test tensor does not code")
	}
	// dense blob, hash table, row order, dictionary, coded blob
	if n := testing.AllocsPerRun(20, func() { Encode(F64, m) }); n != 5 {
		t.Errorf("Encode of a coded dictionary allocates %v times, want 5", n)
	}
}

// BenchmarkCodec times Encode and Decode on one E2EDistr message (one
// client's 128×4 share of a batch, normals) under each codec, and on a
// latent upload whose rows repeat (4,000 rows, 300 distinct, 8 wide) under
// f64.
func BenchmarkCodec(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	msg := tensor.New(128, 4).Randn(rng, 1)
	upload := repeated(rng, 4000, 8, 300)
	for _, c := range []struct {
		name string
		id   ID
		m    *tensor.Matrix
	}{{"f64/msg", F64, msg}, {"f32/msg", F32, msg}, {"q8/msg", Q8, msg}, {"f64/upload", F64, upload}} {
		blob, _, _ := Encode(c.id, c.m)
		b.Run(c.name+"/encode", func(b *testing.B) {
			b.SetBytes(int64(8 * len(c.m.Data)))
			for range b.N {
				Encode(c.id, c.m)
			}
		})
		b.Run(c.name+"/decode", func(b *testing.B) {
			b.SetBytes(int64(8 * len(c.m.Data)))
			for range b.N {
				Decode(c.id, blob, c.m.Rows, c.m.Cols)
			}
		})
	}
}
