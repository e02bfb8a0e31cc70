package profile

import (
	"bytes"
	"compress/gzip"
	"testing"
)

// Hand-assembled profile.proto messages exercise the wire walker on both
// repeated-scalar encodings (the Go runtime emits packed; older writers
// emit unpacked) without depending on runtime/pprof behaviour.

func appendVarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

func appendTag(b []byte, num, wire int) []byte {
	return appendVarint(b, uint64(num)<<3|uint64(wire))
}

func appendBytesField(b []byte, num int, payload []byte) []byte {
	b = appendTag(b, num, 2)
	b = appendVarint(b, uint64(len(payload)))
	return append(b, payload...)
}

func appendUintField(b []byte, num int, v uint64) []byte {
	b = appendTag(b, num, 0)
	return appendVarint(b, v)
}

// buildTestProfile assembles: strings ["","cpu","nanoseconds","fnLeaf",
// "fnCaller"], one sample type cpu/nanoseconds, two functions, two
// single-line locations, and one sample [leaf, caller] with value 7.
// packed selects the sample's repeated-field encoding.
func buildTestProfile(packed bool) []byte {
	var msg []byte
	vt := appendUintField(appendUintField(nil, 1, 1), 2, 2)
	msg = appendBytesField(msg, 1, vt)

	var sample []byte
	if packed {
		sample = appendBytesField(sample, 1, appendVarint(appendVarint(nil, 1), 2))
		sample = appendBytesField(sample, 2, appendVarint(nil, 7))
	} else {
		sample = appendUintField(sample, 1, 1)
		sample = appendUintField(sample, 1, 2)
		sample = appendUintField(sample, 2, 7)
	}
	msg = appendBytesField(msg, 2, sample)

	for i, fnName := range []uint64{3, 4} {
		id := uint64(i + 1)
		loc := appendUintField(nil, 1, id)
		line := appendUintField(nil, 1, id) // function_id
		line = appendUintField(line, 2, 42)
		loc = appendBytesField(loc, 4, line)
		msg = appendBytesField(msg, 4, loc)

		fn := appendUintField(nil, 1, id)
		fn = appendUintField(fn, 2, fnName)
		msg = appendBytesField(msg, 5, fn)
	}
	for _, s := range []string{"", "cpu", "nanoseconds", "fnLeaf", "fnCaller"} {
		msg = appendBytesField(msg, 6, []byte(s))
	}
	msg = appendUintField(msg, 10, 123456) // duration_nanos
	msg = appendUintField(msg, 12, 10000)  // period
	return msg
}

func TestParseHandBuilt(t *testing.T) {
	for _, tc := range []struct {
		name   string
		packed bool
		gz     bool
	}{
		{"packed-raw", true, false},
		{"unpacked-raw", false, false},
		{"packed-gzip", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := buildTestProfile(tc.packed)
			if tc.gz {
				var buf bytes.Buffer
				zw := gzip.NewWriter(&buf)
				zw.Write(data)
				zw.Close()
				data = buf.Bytes()
			}
			p, err := ParsePprof(data)
			if err != nil {
				t.Fatal(err)
			}
			if len(p.SampleTypes) != 1 || p.SampleTypes[0] != (ValueType{"cpu", "nanoseconds"}) {
				t.Fatalf("sample types = %v", p.SampleTypes)
			}
			if p.DurationNanos != 123456 || p.Period != 10000 {
				t.Fatalf("duration/period = %d/%d", p.DurationNanos, p.Period)
			}
			flat, err := p.Flatten("")
			if err != nil {
				t.Fatal(err)
			}
			if flat.Total != 7 {
				t.Fatalf("total = %d, want 7", flat.Total)
			}
			leaf, caller := flat.Lookup("fnLeaf"), flat.Lookup("fnCaller")
			if leaf.Self != 7 || leaf.Cum != 7 {
				t.Errorf("fnLeaf = %+v, want self=cum=7", leaf)
			}
			if caller.Self != 0 || caller.Cum != 7 {
				t.Errorf("fnCaller = %+v, want self=0 cum=7", caller)
			}
		})
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	for _, data := range [][]byte{
		{},
		[]byte("not a profile"),
		{0x1f, 0x8b, 0x00}, // truncated gzip
	} {
		if _, err := ParsePprof(data); err == nil {
			t.Errorf("ParsePprof(%q) succeeded on garbage", data)
		}
	}
}

func flatFromPairs(unit string, pairs map[string][2]int64) *FlatProfile {
	fp := &FlatProfile{Type: "cpu", Unit: unit, funcs: make(map[string]*FuncStat)}
	for name, sc := range pairs {
		fp.funcs[name] = &FuncStat{Name: name, Self: sc[0], Cum: sc[1]}
		fp.Total += sc[0]
	}
	return fp
}

func TestTopLimitsAndSorts(t *testing.T) {
	fp := flatFromPairs("nanoseconds", map[string][2]int64{
		"a": {5, 10}, "b": {20, 20}, "c": {1, 30},
	})
	top := fp.Top(2)
	if len(top) != 2 || top[0].Name != "b" || top[1].Name != "a" {
		t.Fatalf("top = %+v", top)
	}
}

func TestFormatValue(t *testing.T) {
	for _, tc := range []struct {
		v    int64
		unit string
		want string
	}{
		{2_500_000, "nanoseconds", "2.5ms"},
		{2048, "bytes", "2.0kB"},
		{3, "count", "3"},
	} {
		if got := FormatValue(tc.v, tc.unit); got != tc.want {
			t.Errorf("FormatValue(%d, %s) = %q, want %q", tc.v, tc.unit, got, tc.want)
		}
	}
}
