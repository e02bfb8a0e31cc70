package profile

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"sort"
)

// Pure-stdlib decoder for the pprof profile.proto wire format. The Go
// runtime emits gzipped protobuf (pprof.Profile debug=0); this file parses
// exactly the subset the function tables need — sample types, samples,
// locations, lines, functions, and the string table — with a hand-rolled
// varint walker so the module gains no protobuf dependency (the same
// philosophy as silofuse-vet's source-importer loader).
//
// Field numbers follow
// github.com/google/pprof/proto/profile.proto:
//
//	Profile:  1 sample_type, 2 sample, 4 location, 5 function,
//	          6 string_table, 9 time_nanos, 10 duration_nanos,
//	          11 period_type, 12 period, 14 default_sample_type
//	Sample:   1 location_id (repeated, may be packed), 2 value (repeated)
//	Location: 1 id, 4 line
//	Line:     1 function_id, 2 line
//	Function: 1 id, 2 name, 3 system_name, 4 filename
//
// Repeated scalar fields arrive packed (wire type 2) from the Go runtime
// but the decoder also accepts the unpacked encoding.

// ValueType names one sample dimension ("cpu"/"nanoseconds",
// "inuse_space"/"bytes", ...).
type ValueType struct {
	Type string
	Unit string
}

// Profile is a decoded pprof profile, resolved against its string table.
type Profile struct {
	SampleTypes       []ValueType
	DefaultSampleType string
	TimeNanos         int64
	DurationNanos     int64
	PeriodType        ValueType
	Period            int64
	Samples           []Sample

	locations map[uint64]location
	functions map[uint64]function
	strtab    []string
}

// Sample is one stack sample: values per SampleType and the stack's
// location ids, leaf first.
type Sample struct {
	LocationIDs []uint64
	Values      []int64
}

type location struct {
	id    uint64
	lines []line
}

type line struct {
	functionID uint64
	line       int64
}

type function struct {
	id   uint64
	name int64 // string table index
}

// ParsePprof decodes a pprof profile from raw or gzipped protobuf bytes.
func ParsePprof(data []byte) (*Profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("pprof gzip: %w", err)
		}
		defer zr.Close()
		raw, err := io.ReadAll(zr)
		if err != nil {
			return nil, fmt.Errorf("pprof gzip: %w", err)
		}
		data = raw
	}
	return parseProfileMessage(data)
}

// ParsePprofFile reads and decodes one captured profile file.
func ParsePprofFile(path string) (*Profile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	p, err := ParsePprof(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}

// --- protobuf wire walker -------------------------------------------------

// varint decodes one base-128 varint.
func varint(b []byte) (uint64, int, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, i + 1, nil
		}
	}
	return 0, 0, fmt.Errorf("truncated varint")
}

// walkFields iterates a protobuf message's fields. For wire type 0 the
// value arrives in v; for type 2 in data; fixed 64/32-bit fields (types
// 1/5) are skipped — profile.proto does not use them.
func walkFields(msg []byte, fn func(num int, wire int, data []byte, v uint64) error) error {
	for len(msg) > 0 {
		key, n, err := varint(msg)
		if err != nil {
			return err
		}
		msg = msg[n:]
		num := int(key >> 3)
		wire := int(key & 7)
		switch wire {
		case 0:
			v, n, err := varint(msg)
			if err != nil {
				return err
			}
			msg = msg[n:]
			if err := fn(num, wire, nil, v); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return fmt.Errorf("truncated fixed64 field %d", num)
			}
			msg = msg[8:]
		case 2:
			ln, n, err := varint(msg)
			if err != nil {
				return err
			}
			msg = msg[n:]
			if uint64(len(msg)) < ln {
				return fmt.Errorf("truncated bytes field %d", num)
			}
			if err := fn(num, wire, msg[:ln], 0); err != nil {
				return err
			}
			msg = msg[ln:]
		case 5:
			if len(msg) < 4 {
				return fmt.Errorf("truncated fixed32 field %d", num)
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d (field %d)", wire, num)
		}
	}
	return nil
}

// packedUints appends a repeated scalar field's values: a packed payload
// (wire 2) or one unpacked value (wire 0).
func packedUints(dst []uint64, wire int, data []byte, v uint64) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		u, n, err := varint(data)
		if err != nil {
			return nil, err
		}
		dst = append(dst, u)
		data = data[n:]
	}
	return dst, nil
}

// --- message parsers ------------------------------------------------------

func parseProfileMessage(data []byte) (*Profile, error) {
	p := &Profile{
		locations: make(map[uint64]location),
		functions: make(map[uint64]function),
	}
	var strtab []string
	var sampleTypeIdx []valueTypeIdx
	var periodTypeIdx valueTypeIdx
	var defaultSampleIdx int64
	err := walkFields(data, func(num, wire int, data []byte, v uint64) error {
		switch num {
		case 1: // sample_type
			vt, err := parseValueType(data)
			if err != nil {
				return err
			}
			sampleTypeIdx = append(sampleTypeIdx, vt)
		case 2: // sample
			s, err := parseSample(data)
			if err != nil {
				return err
			}
			p.Samples = append(p.Samples, s)
		case 4: // location
			loc, err := parseLocation(data)
			if err != nil {
				return err
			}
			p.locations[loc.id] = loc
		case 5: // function
			fn, err := parseFunction(data)
			if err != nil {
				return err
			}
			p.functions[fn.id] = fn
		case 6: // string_table
			strtab = append(strtab, string(data))
		case 9:
			p.TimeNanos = int64(v)
		case 10:
			p.DurationNanos = int64(v)
		case 11:
			vt, err := parseValueType(data)
			if err != nil {
				return err
			}
			periodTypeIdx = vt
		case 12:
			p.Period = int64(v)
		case 14:
			defaultSampleIdx = int64(v)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("pprof decode: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strtab)) {
			return ""
		}
		return strtab[i]
	}
	for _, vt := range sampleTypeIdx {
		p.SampleTypes = append(p.SampleTypes, ValueType{Type: str(vt.typ), Unit: str(vt.unit)})
	}
	p.PeriodType = ValueType{Type: str(periodTypeIdx.typ), Unit: str(periodTypeIdx.unit)}
	p.DefaultSampleType = str(defaultSampleIdx)
	p.resolveFunctionNames(strtab)
	if len(p.SampleTypes) == 0 {
		return nil, fmt.Errorf("pprof decode: no sample types (not a pprof proto?)")
	}
	return p, nil
}

// resolveFunctionNames rewrites function name indices into funcNames.
func (p *Profile) resolveFunctionNames(strtab []string) {
	for id, fn := range p.functions {
		if fn.name < 0 || fn.name >= int64(len(strtab)) {
			fn.name = 0
		}
		p.functions[id] = fn
	}
	p.strtab = strtab
}

// valueTypeIdx is a ValueType before string-table resolution.
type valueTypeIdx struct{ typ, unit int64 }

func parseValueType(data []byte) (valueTypeIdx, error) {
	var vt valueTypeIdx
	err := walkFields(data, func(num, wire int, data []byte, v uint64) error {
		switch num {
		case 1:
			vt.typ = int64(v)
		case 2:
			vt.unit = int64(v)
		}
		return nil
	})
	return vt, err
}

func parseSample(data []byte) (Sample, error) {
	var s Sample
	err := walkFields(data, func(num, wire int, data []byte, v uint64) error {
		switch num {
		case 1: // location_id
			ids, err := packedUints(s.LocationIDs, wire, data, v)
			if err != nil {
				return err
			}
			s.LocationIDs = ids
		case 2: // value
			var vals []uint64
			vals, err := packedUints(nil, wire, data, v)
			if err != nil {
				return err
			}
			for _, u := range vals {
				s.Values = append(s.Values, int64(u))
			}
		}
		return nil
	})
	return s, err
}

func parseLocation(data []byte) (location, error) {
	var loc location
	err := walkFields(data, func(num, wire int, data []byte, v uint64) error {
		switch num {
		case 1:
			loc.id = v
		case 4:
			ln, err := parseLine(data)
			if err != nil {
				return err
			}
			loc.lines = append(loc.lines, ln)
		}
		return nil
	})
	return loc, err
}

func parseLine(data []byte) (line, error) {
	var ln line
	err := walkFields(data, func(num, wire int, data []byte, v uint64) error {
		switch num {
		case 1:
			ln.functionID = v
		case 2:
			ln.line = int64(v)
		}
		return nil
	})
	return ln, err
}

func parseFunction(data []byte) (function, error) {
	var fn function
	err := walkFields(data, func(num, wire int, data []byte, v uint64) error {
		switch num {
		case 1:
			fn.id = v
		case 2:
			fn.name = int64(v)
		}
		return nil
	})
	return fn, err
}

// FuncName resolves a function id to its name ("" when unknown).
func (p *Profile) FuncName(id uint64) string {
	if p == nil {
		return ""
	}
	fn, ok := p.functions[id]
	if !ok {
		return ""
	}
	if fn.name < 0 || fn.name >= int64(len(p.strtab)) {
		return ""
	}
	return p.strtab[fn.name]
}

// SampleIndex picks the value column to aggregate: an explicit type name,
// or (for "") the profile's default — preferring cpu, then inuse_space,
// then the declared default_sample_type, then the last column (the pprof
// tool's own fallback).
func (p *Profile) SampleIndex(typ string) (int, error) {
	if p == nil || len(p.SampleTypes) == 0 {
		return 0, fmt.Errorf("profile has no sample types")
	}
	if typ != "" {
		for i, st := range p.SampleTypes {
			if st.Type == typ {
				return i, nil
			}
		}
		return 0, fmt.Errorf("no sample type %q (have %v)", typ, p.SampleTypes)
	}
	for _, want := range []string{"cpu", "inuse_space", p.DefaultSampleType} {
		if want == "" {
			continue
		}
		for i, st := range p.SampleTypes {
			if st.Type == want {
				return i, nil
			}
		}
	}
	return len(p.SampleTypes) - 1, nil
}

// FuncStat aggregates one function's weight in a flattened profile.
type FuncStat struct {
	Name string
	Self int64 // weight of samples where this function is the leaf frame
	Cum  int64 // weight of samples anywhere on whose stack it appears
}

// FlatProfile is a profile flattened to per-function self/cum totals.
type FlatProfile struct {
	Type  string // sample type aggregated ("cpu", "inuse_space", ...)
	Unit  string // its unit ("nanoseconds", "bytes", ...)
	Total int64
	funcs map[string]*FuncStat
}

// Flatten aggregates the chosen sample-type column ("" = default) into
// per-function self and cumulative totals. Self weight goes to the
// innermost inline frame of the leaf location; cumulative weight counts
// each function once per sample however often it recurses.
func (p *Profile) Flatten(sampleType string) (*FlatProfile, error) {
	if p == nil {
		return nil, fmt.Errorf("nil profile")
	}
	idx, err := p.SampleIndex(sampleType)
	if err != nil {
		return nil, err
	}
	fp := &FlatProfile{
		Type:  p.SampleTypes[idx].Type,
		Unit:  p.SampleTypes[idx].Unit,
		funcs: make(map[string]*FuncStat),
	}
	seen := make(map[string]bool)
	for _, s := range p.Samples {
		if idx >= len(s.Values) {
			continue
		}
		v := s.Values[idx]
		fp.Total += v
		for k := range seen {
			delete(seen, k)
		}
		for li, locID := range s.LocationIDs {
			loc := p.locations[locID]
			// Line[0] is the innermost inline frame; the sample's true
			// leaf is the first line of the first location.
			for fi, ln := range loc.lines {
				name := p.FuncName(ln.functionID)
				if name == "" {
					continue
				}
				st, ok := fp.funcs[name]
				if !ok {
					st = &FuncStat{Name: name}
					fp.funcs[name] = st
				}
				if li == 0 && fi == 0 {
					st.Self += v
				}
				if !seen[name] {
					seen[name] = true
					st.Cum += v
				}
			}
		}
	}
	return fp, nil
}

// Lookup returns the stat for a function name (zero value when absent).
func (f *FlatProfile) Lookup(name string) FuncStat {
	if f == nil {
		return FuncStat{Name: name}
	}
	if st, ok := f.funcs[name]; ok {
		return *st
	}
	return FuncStat{Name: name}
}

// Top returns the n heaviest functions by self weight (cum breaks ties).
func (f *FlatProfile) Top(n int) []FuncStat {
	if f == nil {
		return nil
	}
	out := make([]FuncStat, 0, len(f.funcs))
	for _, st := range f.funcs {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		if out[i].Cum != out[j].Cum {
			return out[i].Cum > out[j].Cum
		}
		return out[i].Name < out[j].Name
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// FormatValue renders a sample value in its natural unit for tables.
func FormatValue(v int64, unit string) string {
	switch unit {
	case "nanoseconds":
		return fmt.Sprintf("%.1fms", float64(v)/1e6)
	case "bytes":
		return fmt.Sprintf("%.1fkB", float64(v)/1024)
	case "microseconds":
		return fmt.Sprintf("%.1fms", float64(v)/1e3)
	default:
		return fmt.Sprintf("%d", v)
	}
}
