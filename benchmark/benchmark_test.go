package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, tc := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {95, 4.8}, {100, 5}} {
		if got := percentile(xs, tc.p); !near(got, tc.want) {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); !near(got, 2.5) {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
	if got := percentile(nil, 50); got != 0 { //silofuse:bitwise-ok the empty case returns the literal 0
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := medianDuration([]time.Duration{3 * time.Second, time.Second, 2 * time.Second}); got != 2*time.Second {
		t.Errorf("medianDuration = %v, want 2s", got)
	}
}

// The driver computes spread with Python's statistics.quantiles(n=4); the
// expected values below are that function's output.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 3, 1, 4, 2}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if !near(q1, tc.want[0]) || !near(q2, tc.want[1]) || !near(q3, tc.want[2]) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", tc.xs, q1, q2, q3, tc.want)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "request", StartNS: 0, EndNS: 100, Parent: -1},
		{Name: "decode.c0", StartNS: 10, EndNS: 30, Parent: 0},
		{Name: "decode.c1", StartNS: 20, EndNS: 50, Parent: 0},  // overlaps c0: the union 10..50 counts once
		{Name: "join", StartNS: 60, EndNS: 70, Parent: 0},       // disjoint
		{Name: "inner", StartNS: 62, EndNS: 68, Parent: 3},      // a grandchild is the child's business
		{Name: "late", StartNS: 90, EndNS: 130, Parent: 0},      // clipped to the parent's end
		{Name: "request", StartNS: 200, EndNS: 260, Parent: -1}, // a second root with no children
	}
	if got := selfTime(spans, 0); got != 40 {
		t.Errorf("self time of the first root = %d, want 100-(40+10+10) = 40", got)
	}
	if got := selfTime(spans, 3); got != 4 {
		t.Errorf("self time of join = %d, want 10-6 = 4", got)
	}
	if got := rootSelfTime(spans); got != 100 {
		t.Errorf("root self time = %d, want 40+60 = 100", got)
	}
	if got := totalOf(spans, "request"); got != 160 {
		t.Errorf("total of request = %d, want 160", got)
	}
	if got := maxOverMean(spans, "decode."); !near(got, 30.0/25.0) {
		t.Errorf("max over mean = %v, want 30/25", got)
	}
}

func TestReferenceSpeed(t *testing.T) {
	// A kernel running twice as slow as the reference either side of an
	// operation halves its time; a mixed bracket uses the mean slowdown.
	if got := atReferenceSpeed(time.Second, 2*referenceKernel, 2*referenceKernel); got != 500*time.Millisecond {
		t.Errorf("at half speed 1s reads %v, want 500ms", got)
	}
	if got := atReferenceSpeed(time.Second, referenceKernel, 3*referenceKernel); got != 500*time.Millisecond {
		t.Errorf("between speed 1 and a third 1s reads %v, want 500ms", got)
	}
	if d := kernel(); d <= 0 {
		t.Errorf("kernel took %v", d)
	}
}

func TestTracerRecordsParentAndRequest(t *testing.T) {
	tr := newTracer()
	root := tr.start("request", -1, 7)
	child := tr.start("decode", root, 7)
	tr.end(child)
	tr.end(root)
	got := tr.spans[child]
	if got.Parent != root || got.Request != 7 || got.EndNS < got.StartNS {
		t.Errorf("child span = %+v", got)
	}
	if selfTime(tr.spans, root) > tr.spans[root].duration() {
		t.Error("self time exceeds the span's duration")
	}
}

func TestInputsFollowTheSeed(t *testing.T) {
	for _, w := range workloads {
		w = w.tiny()
		a, err := w.inputs(3)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := w.inputs(3)
		other, _ := w.inputs(4)
		if tableHash(a) != tableHash(b) {
			t.Errorf("%s: equal seeds gave different inputs", w.Name)
		}
		if tableHash(a) == tableHash(other) {
			t.Errorf("%s: different seeds gave the same inputs", w.Name)
		}
		if w.options(3).Seed != 3 {
			t.Errorf("%s: the seed does not reach the model options", w.Name)
		}
	}
}

// BENCHMARK.json is generated from the tables in manifest.go
// (go run ./benchmark -manifest > BENCHMARK.json); this pins the committed
// file to them and the tables to the driver's limits.
func TestManifestMatchesFile(t *testing.T) {
	want, err := manifestJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from go run ./benchmark -manifest")
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkDef := func(d metricDef) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || (d.Better != "higher" && d.Better != "lower") {
			t.Errorf("metric %+v breaks the naming rules", d)
		}
		if seen[d.Name] {
			t.Errorf("name %s is used twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, w := range workloads {
		if !name.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") || seen[w.Name] {
			t.Errorf("workload %s breaks the naming rules", w.Name)
		}
		seen[w.Name] = true
	}
	largest := 0.0
	for _, d := range endToEnd {
		checkDef(d)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		largest = max(largest, d.Bound)
	}
	if d := endToEnd[0]; d.Name != "setup_s" || d.Unit != "s" || d.Better != "lower" || d.Bound < largest {
		t.Errorf("setup_s must be an end-to-end metric in s, lower is better, with the largest bound; got %+v", d)
	}
	for _, d := range perLayer {
		checkDef(d)
	}
	if n := len(workloads); n < 2 || n > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end and %d per-layer metrics exceed the limits", n, len(endToEnd), len(perLayer))
	}
}

// A pass over all five workloads at tiny sizes: both runs must complete,
// pass every output check and report every metric they promise.
func TestTinyWorkloads(t *testing.T) {
	guard := watchdog(time.Minute, func(op string) { t.Errorf("%s exceeded its deadline", op) })
	for _, w := range workloads {
		w = w.tiny()
		res, err := runEndToEnd(w, 1, 0, guard)
		if err != nil {
			t.Fatalf("%s untraced: %v", w.Name, err)
		}
		if !res.Correct {
			t.Errorf("%s untraced: failed checks %v", w.Name, res.Failures)
		}
		for _, d := range endToEnd {
			if v, ok := res.Metrics[d.Name]; !ok || v.Value <= 0 || v.Unit != d.Unit {
				t.Errorf("%s: end-to-end metric %s = %+v", w.Name, d.Name, v)
			}
		}
		if int(res.Info["ops"]) != w.minOps {
			t.Errorf("%s: %v operations at zero seconds, want the minimum %d", w.Name, res.Info["ops"], w.minOps)
		}

		res, err = runTraced(w, 1, guard)
		if err != nil {
			t.Fatalf("%s traced: %v", w.Name, err)
		}
		if !res.Correct {
			t.Errorf("%s traced: failed checks %v", w.Name, res.Failures)
		}
		for _, d := range perLayer {
			if v, ok := res.Metrics[d.Name]; !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: per-layer metric %s = %+v", w.Name, d.Name, v)
			}
		}
		if len(res.Spans) == 0 {
			t.Errorf("%s: the traced run kept no spans", w.Name)
		}
	}
}

func TestCheckerCountsFailures(t *testing.T) {
	w, _ := workloadByName("train_narrow")
	table, err := w.tiny().inputs(1)
	if err != nil {
		t.Fatal(err)
	}
	c := &checker{}
	c.table("good", table, table.Rows())
	if c.failed != 0 || c.attempted != 3 {
		t.Fatalf("a valid table: %d failed of %d, want 0 of 3 (%v)", c.failed, c.attempted, c.failures)
	}
	bad := table.Clone()
	bad.Data.Set(0, 0, float64(table.Schema.Columns[0].Cardinality)) // one past the last code
	bad.Data.Set(1, table.Schema.NumColumns()-1, math.NaN())
	c.table("bad", bad, table.Rows()+1)
	if c.failed != 3 {
		t.Errorf("a table with a wrong row count, a bad code and a NaN: %d failed checks, want 3 (%v)", c.failed, c.failures)
	}
}

func TestWatchdogFiresOnlyPastTheDeadline(t *testing.T) {
	expired := make(chan string, 1)
	guard := watchdog(10*time.Millisecond, func(op string) { expired <- op })
	if err := guard("quick", func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() { done <- guard("wedged fit", func() error { <-release; return nil }) }()
	if op := <-expired; op != "wedged fit" {
		t.Errorf("expired %q, want the wedged fit", op)
	}
	close(release)
	<-done
	select {
	case op := <-expired:
		t.Errorf("the watchdog also fired for %q", op)
	default:
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "op_ms_p50", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "rows_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100}
	for _, tc := range []struct {
		d    metricDef
		b    []float64
		want string
	}{
		{lower, []float64{104, 105, 103, 104}, same},
		{lower, []float64{120, 121, 119, 120}, worse},
		{lower, []float64{80, 81, 79, 80}, better},
		{higher, []float64{120, 121, 119, 120}, better},
		{higher, []float64{80, 81, 79, 80}, worse},
		{lower, []float64{80, 140, 100, 120}, unresolved},
	} {
		if got, _, _ := judge(tc.d, steady, tc.b); got != tc.want {
			t.Errorf("judge(%s, %v) = %s, want %s", tc.d.Name, tc.b, got, tc.want)
		}
	}
}

func TestResultFileAppendsAndCompares(t *testing.T) {
	dir := t.TempDir()
	write := func(file string, ms float64) {
		for i := 0; i < 3; i++ {
			res := &result{Workload: "train_narrow", Correct: true, Metrics: map[string]metricValue{"op_ms_p50": {ms + float64(i), "ms"}}}
			if err := appendResult(filepath.Join(dir, file), res); err != nil {
				t.Fatal(err)
			}
		}
	}
	write("a.json", 100)
	write("b.json", 150)
	f, err := readResults(filepath.Join(dir, "a.json"))
	if err != nil || len(f.Runs) != 3 {
		t.Fatalf("read back %d runs, err %v; want 3", len(f.Runs), err)
	}
	var out bytes.Buffer
	if err := compareFiles(&out, filepath.Join(dir, "a.json"), filepath.Join(dir, "a.json")); err != nil {
		t.Errorf("a file compared with itself: %v\n%s", err, out.String())
	}
	out.Reset()
	if err := compareFiles(&out, filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")); err == nil || !strings.Contains(out.String(), worse) {
		t.Errorf("a 50%% slower file passed the comparison:\n%s", out.String())
	}
}
