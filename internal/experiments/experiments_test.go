//silofuse:bitwise-ok determinism tests pin bit-reproducible outputs with exact comparisons
package experiments

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"silofuse/internal/datagen"
	"silofuse/internal/obs"
)

// tinyConfig shrinks everything so the full harness paths run in seconds.
func tinyConfig() Config {
	c := Fast()
	c.RowCap = 300
	c.SynthRows = 200
	c.Opts.AEIters = 60
	c.Opts.DiffIters = 100
	c.Opts.GANIters = 60
	c.Opts.Batch = 64
	c.UtilCfg.Boost.NumRounds = 5
	c.UtilCfg.MaxColumns = 4
	c.PrivCfg.Attacks = 50
	return c
}

func TestTableIIMatchesPaper(t *testing.T) {
	rows, err := Fast().TableII()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]TableIIRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	churn := byName["churn"]
	if churn.After != 2964 || churn.Before != 14 {
		t.Fatalf("churn sizes wrong: %+v", churn)
	}
	if churn.Increase < 211 || churn.Increase > 212 {
		t.Fatalf("churn increase %v, paper says 211.71", churn.Increase)
	}
	var buf bytes.Buffer
	PrintTableII(&buf, rows)
	if !strings.Contains(buf.String(), "churn") {
		t.Fatal("printout missing dataset")
	}
}

func TestTableIIIGridStructure(t *testing.T) {
	c := tinyConfig()
	c.Datasets = []string{"loan"}
	c.Models = []string{"gan-linear", "silofuse"}
	g, err := c.TableIII()
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Datasets) != 1 || len(g.Models) != 2 {
		t.Fatalf("grid shape: %v x %v", g.Datasets, g.Models)
	}
	for _, m := range g.Models {
		s := g.Cell("loan", m)
		if s.Mean < 0 || s.Mean > 100 {
			t.Fatalf("%s score out of range: %v", m, s)
		}
	}
	var buf bytes.Buffer
	PrintGrid(&buf, g)
	out := buf.String()
	if !strings.Contains(out, "SiloFuse") || !strings.Contains(out, "PPD") {
		t.Fatalf("grid printout incomplete:\n%s", out)
	}
}

func TestTableIVGrid(t *testing.T) {
	c := tinyConfig()
	c.Datasets = []string{"loan"}
	c.Models = []string{"silofuse"}
	g, err := c.TableIV()
	if err != nil {
		t.Fatal(err)
	}
	s := g.Cell("loan", "SiloFuse")
	if s.Mean < 0 || s.Mean > 100 {
		t.Fatalf("utility out of range: %v", s)
	}
}

func TestTableVHeatmaps(t *testing.T) {
	c := tinyConfig()
	c.Datasets = []string{"cardio"}
	c.Models = []string{"silofuse", "tabddpm"}
	cells, err := c.TableV()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("cells = %d", len(cells))
	}
	for _, cell := range cells {
		if cell.MeanDiff < 0 || cell.MeanDiff > 1 {
			t.Fatalf("mean diff out of range: %v", cell.MeanDiff)
		}
		lines := strings.Split(strings.TrimRight(cell.HeatMap, "\n"), "\n")
		if len(lines) != 12 { // cardio has 12 columns
			t.Fatalf("heat map shape: %d lines", len(lines))
		}
	}
	var buf bytes.Buffer
	PrintTableV(&buf, cells)
	if !strings.Contains(buf.String(), "cardio") {
		t.Fatal("printout missing dataset")
	}
}

func TestTableVI(t *testing.T) {
	c := tinyConfig()
	c.Datasets = []string{"diabetes"}
	c.Models = []string{"silofuse", "latentdiff"}
	g, err := c.TableVI()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range g.Models {
		s := g.Cell("diabetes", m)
		if s.Mean < 0 || s.Mean > 100 {
			t.Fatalf("privacy out of range: %v", s)
		}
	}
}

func TestTableVIIStepSweep(t *testing.T) {
	c := tinyConfig()
	c.Datasets = []string{"abalone"}
	rows, err := c.TableVII()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || len(rows[0].Scores) != 3 {
		t.Fatalf("rows: %+v", rows)
	}
	var buf bytes.Buffer
	PrintTableVII(&buf, rows)
	if !strings.Contains(buf.String(), "abalone") {
		t.Fatal("printout missing dataset")
	}
}

// TestFigure10Shape verifies the paper's headline communication property:
// SiloFuse cost is flat across iteration counts while E2EDistr grows
// linearly and dominates at every reported point.
func TestFigure10Shape(t *testing.T) {
	c := tinyConfig()
	c.Datasets = []string{"abalone"}
	series, err := c.Figure10()
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 1 {
		t.Fatalf("series = %d", len(series))
	}
	s := series[0]
	if s.SiloFuseBytes[0] != s.SiloFuseBytes[1] || s.SiloFuseBytes[1] != s.SiloFuseBytes[2] {
		t.Fatalf("SiloFuse bytes must be constant: %v", s.SiloFuseBytes)
	}
	if s.E2EDistrBytes[1] != 10*s.E2EDistrBytes[0] || s.E2EDistrBytes[2] != 100*s.E2EDistrBytes[0] {
		t.Fatalf("E2EDistr bytes must scale linearly: %v", s.E2EDistrBytes)
	}
	for i := range s.Iterations {
		if s.E2EDistrBytes[i] <= s.SiloFuseBytes[i] {
			t.Fatalf("E2EDistr should dominate at %d iters", s.Iterations[i])
		}
	}
	var buf bytes.Buffer
	PrintFigure10(&buf, series)
	if !strings.Contains(buf.String(), "SiloFuse") {
		t.Fatal("printout incomplete")
	}
}

// TestFigure10XCodecSweep pins the headline of the codec tier: against the
// lossless f64 frames, f32 at least halves-ish (≥1.8x) the tensor payloads of
// both distributed models with rounding-scale error, q8 cuts further with
// quantization-scale error, and the replayed accounting reaches the main
// recorder so the run manifest sees it.
func TestFigure10XCodecSweep(t *testing.T) {
	c := tinyConfig()
	c.Datasets = []string{"abalone"}
	main := obs.NewRecorder()
	c.Opts.Recorder = main
	rows, err := c.Figure10X()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 { // 3 codecs x 2 models
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	byKey := map[string]Figure10XRow{}
	for _, r := range rows {
		byKey[r.Model+"/"+r.Codec] = r
	}
	for _, model := range []string{"silofuse", "e2edistr"} {
		f64r, f32r, q8r := byKey[model+"/f64"], byKey[model+"/f32"], byKey[model+"/q8"]
		// An f64 frame is the frame of the native tensor, less what row
		// dictionaries save on repeated rows.
		if f64r.EncBytes > f64r.RawBytes {
			t.Errorf("%s: f64 frames cost %d B, the same tensors unframed %d B", model, f64r.EncBytes, f64r.RawBytes)
		}
		if f64r.MaxErr != 0 {
			t.Errorf("%s: lossless f64 reported error %g", model, f64r.MaxErr)
		}
		if f64r.EncBytes == 0 || f32r.EncBytes == 0 || q8r.EncBytes == 0 {
			t.Fatalf("%s: codec rows missing tensor bytes: %+v %+v %+v", model, f64r, f32r, q8r)
		}
		// The wire win the PR promises: f32 cuts tensor bytes >= 1.8x.
		if ratio := float64(f64r.EncBytes) / float64(f32r.EncBytes); ratio < 1.8 {
			t.Errorf("%s: f32 tensor bytes ratio %.2f, want >= 1.8", model, ratio)
		}
		if q8r.EncBytes >= f32r.EncBytes {
			t.Errorf("%s: q8 (%d B) should undercut f32 (%d B)", model, q8r.EncBytes, f32r.EncBytes)
		}
		// Errors are ordered by tier and bounded: rounding scale for f32,
		// quantization scale for q8.
		if f32r.MaxErr <= 0 || f32r.MaxErr > 1e-5 {
			t.Errorf("%s: f32 max err %g out of rounding scale", model, f32r.MaxErr)
		}
		if q8r.MaxErr <= f32r.MaxErr || q8r.MaxErr > 0.1 {
			t.Errorf("%s: q8 max err %g out of quantization scale (f32 %g)", model, q8r.MaxErr, f32r.MaxErr)
		}
	}
	// The replayed accounting lands in the main recorder under the same
	// wire_* families the run manifest parses.
	snap := NewManifest("fig10x", 1)
	snap.FromRecorder(main)
	lat := snap.Wire["f32/latents"]
	if lat.Messages == 0 || lat.Bytes == 0 || lat.MaxErr == 0 {
		t.Fatalf("replayed f32/latents accounting missing: %+v (wire=%v)", lat, snap.Wire)
	}
	// Sampled latents are continuous and never repeat a row: under f64 each
	// costs exactly its dense frame.
	if sl := snap.Wire["f64/synth-latent"]; sl.Messages == 0 || sl.Bytes != sl.RawBytes {
		t.Fatalf("f64/synth-latent: %+v, want every frame dense", sl)
	}

	var buf bytes.Buffer
	PrintFigure10X(&buf, rows)
	if !strings.Contains(buf.String(), "q8") || !strings.Contains(buf.String(), "vs f64") {
		t.Fatal("printout incomplete")
	}
}

func TestFigure11Robustness(t *testing.T) {
	c := tinyConfig()
	c.Datasets = []string{"loan"}
	points, err := c.Figure11()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 { // {4,8} clients x {default, permuted}
		t.Fatalf("points = %d", len(points))
	}
	for _, p := range points {
		if p.Resemblance.Mean < 0 || p.Resemblance.Mean > 100 || p.Utility.Mean < 0 || p.Utility.Mean > 100 {
			t.Fatalf("scores out of range: %+v", p)
		}
	}
	var buf bytes.Buffer
	PrintFigure11(&buf, points)
	if !strings.Contains(buf.String(), "permuted") {
		t.Fatal("printout incomplete")
	}
}

func TestStatFormatting(t *testing.T) {
	s := statOf([]float64{50, 60})
	if s.Mean != 55 || s.Std != 5 {
		t.Fatalf("stat = %+v", s)
	}
	if s.String() != "55.0±5.00" {
		t.Fatalf("format = %s", s.String())
	}
	if z := statOf(nil); z.Mean != 0 || z.Std != 0 {
		t.Fatal("empty stat should be zero")
	}
}

func TestConfigDatasetErrors(t *testing.T) {
	c := Fast()
	c.Datasets = []string{"nope"}
	if _, err := c.TableII(); err == nil {
		t.Fatal("expected unknown dataset error")
	}
}

func TestAblationsStructure(t *testing.T) {
	c := tinyConfig()
	c.Datasets = []string{"loan"}
	rows, err := c.Ablations()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("variants = %d", len(rows))
	}
	names := map[string]bool{}
	for _, r := range rows {
		names[r.Variant] = true
		if r.Resemblance.Mean < 0 || r.Resemblance.Mean > 100 {
			t.Fatalf("%s resemblance out of range: %v", r.Variant, r.Resemblance)
		}
	}
	for _, want := range []string{"baseline", "no-whitening", "mean-decode", "cosine-schedule", "ema-0.995", "steps-5"} {
		if !names[want] {
			t.Fatalf("missing variant %s", want)
		}
	}
	var buf bytes.Buffer
	PrintAblations(&buf, rows)
	if !strings.Contains(buf.String(), "no-whitening") {
		t.Fatal("printout incomplete")
	}
}

// show prints project's projection of s with print, as silofuse-bench does.
func show[T any](project func(*Cells) (T, error), print func(io.Writer, T)) func(*Cells, io.Writer) error {
	return func(s *Cells, w io.Writer) error {
		v, err := project(s)
		if err == nil {
			print(w, v)
		}
		return err
	}
}

// tablesIIIToVI are the projections of Tables III, IV, VI and V, which read
// one cell set between them; the grids come first, so record checks can
// index them.
var tablesIIIToVI = []func(*Cells, io.Writer) error{
	show((*Cells).TableIII, PrintGrid),
	show((*Cells).TableIV, PrintGrid),
	show((*Cells).TableVI, PrintGrid),
	show((*Cells).TableV, PrintTableV),
}

// runCells gathers the cells of projections into a set over c, runs it with
// GOMAXPROCS at procs, and returns each projection's printout and the set's
// cells.jsonl record.
func runCells(t *testing.T, c Config, procs int, projections ...func(*Cells, io.Writer) error) (*Cells, []string, []byte) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	s := NewCells(c)
	for _, p := range projections {
		if err := p(s, io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	printouts := make([]string, len(projections))
	for i, p := range projections {
		var buf bytes.Buffer
		if err := p(s, &buf); err != nil {
			t.Fatal(err)
		}
		printouts[i] = buf.String()
	}
	var record bytes.Buffer
	if err := s.WriteRecord(&record); err != nil {
		t.Fatal(err)
	}
	return s, printouts, record.Bytes()
}

// cellGridConfig is 2 datasets × 2 models × 2 trials at tinyConfig's scale.
func cellGridConfig(models ...string) Config {
	c := tinyConfig()
	c.Datasets = []string{"loan", "diabetes"}
	c.Models = models
	c.Trials = 2
	return c
}

// TestCellsParallelEqualsSequential: cells are independent, so one worker
// and two print the same tables and write the same record, byte for byte.
func TestCellsParallelEqualsSequential(t *testing.T) {
	c := cellGridConfig("gan-linear", "silofuse")
	_, seq, seqRecord := runCells(t, c, 1, tablesIIIToVI...)
	_, par, parRecord := runCells(t, c, 2, tablesIIIToVI...)
	for i := range seq {
		if seq[i] != par[i] {
			t.Errorf("printout %d differs:\nGOMAXPROCS 1:\n%s\nGOMAXPROCS 2:\n%s", i, seq[i], par[i])
		}
	}
	if !bytes.Equal(seqRecord, parRecord) {
		t.Errorf("cells.jsonl differs:\nGOMAXPROCS 1:\n%s\nGOMAXPROCS 2:\n%s", seqRecord, parRecord)
	}
	// 8 cells; resemblance, utility, the privacy composite and its three
	// attacks on every cell, the association difference on trial 0's.
	if lines := bytes.Count(seqRecord, []byte("\n")); lines != 8*6+4 {
		t.Errorf("cells.jsonl has %d lines, want %d:\n%s", lines, 8*6+4, seqRecord)
	}
}

// TestCellsFitOncePerCell counts fits by the training steps they record:
// Tables III, IV, V and VI read |datasets| × |models| × trials cells between
// them and fit each once, each on its own trace lane.
func TestCellsFitOncePerCell(t *testing.T) {
	c := cellGridConfig("gan-linear", "tabddpm")
	rec := obs.NewRecorder()
	c.Opts.Recorder = rec
	s, _, _ := runCells(t, c, runtime.GOMAXPROCS(0), tablesIIIToVI...)
	const cells = 2 * 2 * 2
	if s.Len() != cells {
		t.Errorf("set has %d cells, want %d", s.Len(), cells)
	}
	snap := rec.Snapshot()
	fits := map[string]int64{
		"gan":     snap.Counters["gan_steps_total"] / int64(c.Opts.GANIters),
		"tabddpm": snap.Counters["tabddpm_steps_total"] / int64(c.Opts.DiffIters),
	}
	for model, n := range fits {
		if n != cells/2 {
			t.Errorf("%s fitted %d times, want %d", model, n, cells/2)
		}
	}
	var docs []io.Reader
	for _, r := range s.Recorders() {
		var buf bytes.Buffer
		if err := r.Trace.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		docs = append(docs, &buf)
	}
	var merged bytes.Buffer
	if err := obs.MergeChromeTraces(&merged, docs...); err != nil {
		t.Fatal(err)
	}
	if lanes := strings.Count(merged.String(), `"process_name"`); lanes != cells {
		t.Errorf("merged trace has %d lanes, want one per cell (%d)", lanes, cells)
	}
}

// TestCellsRecordEqualsPrintout: the grids a cells.jsonl record projects
// are the grids its run printed, and every recorded value reads back to the
// bits it was written from.
func TestCellsRecordEqualsPrintout(t *testing.T) {
	c := cellGridConfig("gan-linear", "latentdiff")
	s, printed, record := runCells(t, c, runtime.GOMAXPROCS(0), tablesIIIToVI...)
	back := readCells(t, c, record)
	if back.Len() != s.Len() {
		t.Fatalf("record holds %d cells, the run %d", back.Len(), s.Len())
	}
	for i, p := range tablesIIIToVI[:3] {
		var buf bytes.Buffer
		if err := p(back, &buf); err != nil {
			t.Fatal(err)
		}
		if buf.String() != printed[i] {
			t.Errorf("grid %d from the record:\n%s\nprinted:\n%s", i, buf.String(), printed[i])
		}
	}
	want, _ := s.TableV()
	got, _ := back.TableV()
	for i := range want {
		if got[i].MeanDiff != want[i].MeanDiff {
			t.Errorf("Table V %s/%s: record %v, printed %v", want[i].Dataset, want[i].Model, got[i].MeanDiff, want[i].MeanDiff)
		}
	}
	var again bytes.Buffer
	if err := back.WriteRecord(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), record) {
		t.Errorf("record does not re-write to its own bytes:\n%s\nwant:\n%s", again.Bytes(), record)
	}
}

// readCells reads a cells.jsonl record back into a set over c, already
// scored: its projections print what the run that wrote it printed, Table
// V's heat maps aside (a heat map is not a metric and is not recorded).
func readCells(t *testing.T, c Config, record []byte) *Cells {
	t.Helper()
	s := NewCells(c)
	dec := json.NewDecoder(bytes.NewReader(record))
	for dec.More() {
		var l struct {
			Dataset, Model, Variant, Metric string
			Trial                           int
			Value                           json.RawMessage
		}
		if err := dec.Decode(&l); err != nil {
			t.Fatal(err)
		}
		spec, err := datagen.ByName(l.Dataset)
		if err != nil {
			t.Fatal(err)
		}
		cl := s.cell(spec, l.Model, variant{name: l.Variant}, l.Trial, l.Metric)
		if cl.scores == nil {
			cl.scores = make(map[string]float64)
		}
		cl.scores[l.Metric] = parseRecordValue(t, l.Value)
	}
	return s
}

// parseRecordValue reads a recorded value: a JSON number, or a quoted
// NaN/±Inf.
func parseRecordValue(t *testing.T, raw json.RawMessage) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.Trim(string(raw), `"`), 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestRecordValueBits: every line of a record is JSON, and a recorded value
// reads back to its bits, NaN and the infinities included.
func TestRecordValueBits(t *testing.T) {
	s := NewCells(Fast())
	loan, _ := datagen.ByName("loan")
	values := []float64{0, math.Copysign(0, -1), 0.1, 83.80000000000001, 1e300, 5e-324, math.Inf(1), math.Inf(-1), math.NaN()}
	for i, v := range values {
		s.cell(loan, "silofuse", variant{name: "steps-5"}, i, "resemblance").scores = map[string]float64{"resemblance": v}
	}
	var record bytes.Buffer
	if err := s.WriteRecord(&record); err != nil {
		t.Fatal(err)
	}
	back := readCells(t, Fast(), record.Bytes())
	for i, v := range values {
		got := back.cell(loan, "silofuse", variant{name: "steps-5"}, i, "resemblance").scores["resemblance"]
		if math.Float64bits(got) != math.Float64bits(v) {
			t.Errorf("%v read back as %v from:\n%s", v, got, record.Bytes())
		}
	}
}
