package experiments

import (
	"fmt"
	"io"

	"silofuse/internal/core"
	"silofuse/internal/obs"
	"silofuse/internal/silo"
)

// Figure10Series is one dataset's communication-cost comparison: total
// bytes transferred for SiloFuse (stacked) vs E2EDistr (end-to-end) at each
// iteration count, every tensor counted in its dense f64 frame as the paper
// counts it. SiloFuse bytes come from a real measured run and are
// iteration-invariant by construction; E2EDistr bytes are measured per
// iteration on a real short run (every iteration moves identical dense
// sizes) and scaled exactly to the paper's iteration counts. The Sent
// fields are what the wire actually carried, row dictionaries included.
type Figure10Series struct {
	Dataset           string
	Iterations        []int
	SiloFuseBytes     []int64
	E2EDistrBytes     []int64
	SiloFuseSentBytes int64
	// MeasuredE2EIters, MeasuredE2EBytes (dense) and MeasuredE2ESentBytes
	// document the actual run used to establish the per-iteration cost.
	MeasuredE2EIters     int
	MeasuredE2EBytes     int64
	MeasuredE2ESentBytes int64
}

// denseBytes is what a run moving sent bytes would have moved with every
// codec-framed tensor in its dense f64 frame: the sent bytes plus what the
// row dictionaries saved.
func denseBytes(sent int64, rep map[string]silo.WireKindStats) int64 {
	for _, st := range rep {
		sent += st.RawBytes - st.Bytes
	}
	return sent
}

// Figure10 reproduces the communication experiment on Abalone and Intrusion
// with iteration counts 50k / 500k / 5M (paper setup: 4 clients, equal
// feature partitions).
func (c Config) Figure10() ([]Figure10Series, error) {
	iterCounts := []int{50_000, 500_000, 5_000_000}
	specs, err := c.datasets("abalone", "intrusion")
	if err != nil {
		return nil, err
	}
	var out []Figure10Series
	for _, spec := range specs {
		train, _ := c.prepare(spec)

		// SiloFuse: run stacked training for real, count bytes. The count is
		// independent of AEIters/DiffIters (proved by the silo tests), so one
		// run covers all iteration counts.
		sfOpts := c.Opts
		sfOpts.AEIters = 20
		sfOpts.DiffIters = 20
		sf := core.NewSiloFuse(sfOpts)
		if err := sf.Fit(train); err != nil {
			return nil, err
		}
		sfSent := sf.CommStats().Bytes
		sfBytes := denseBytes(sfSent, sf.WireReport())

		// E2EDistr: measure a short real run, derive the exact per-iteration
		// cost, scale.
		const measured = 20
		e2eOpts := c.Opts
		e2eOpts.AEIters = measured
		e2eOpts.DiffIters = 0
		e2e := core.NewE2EDistr(e2eOpts)
		if err := e2e.Fit(train); err != nil {
			return nil, err
		}
		e2eSent := e2e.CommStats().Bytes
		e2eBytes := denseBytes(e2eSent, e2e.WireReport())
		if e2eBytes%measured != 0 {
			return nil, fmt.Errorf("experiments: E2E bytes %d not iteration-uniform", e2eBytes)
		}
		perIter := e2eBytes / measured

		series := Figure10Series{
			Dataset:              spec.Name,
			Iterations:           iterCounts,
			SiloFuseSentBytes:    sfSent,
			MeasuredE2EIters:     measured,
			MeasuredE2EBytes:     e2eBytes,
			MeasuredE2ESentBytes: e2eSent,
		}
		for _, it := range iterCounts {
			series.SiloFuseBytes = append(series.SiloFuseBytes, sfBytes)
			series.E2EDistrBytes = append(series.E2EDistrBytes, perIter*int64(it))
		}
		out = append(out, series)
	}
	return out, nil
}

// PrintFigure10 renders the communication series.
func PrintFigure10(w io.Writer, series []Figure10Series) {
	fmt.Fprintln(w, "Figure 10: bytes communicated during training (4 clients), tensors in dense frames")
	for _, s := range series {
		fmt.Fprintf(w, "\n%s (E2EDistr measured: %d iters -> %s dense, %s as sent)\n", s.Dataset,
			s.MeasuredE2EIters, humanBytes(s.MeasuredE2EBytes), humanBytes(s.MeasuredE2ESentBytes))
		fmt.Fprintf(w, "%12s %14s %14s\n", "iterations", "SiloFuse", "E2EDistr")
		for i, it := range s.Iterations {
			fmt.Fprintf(w, "%12d %14s %14s\n", it, humanBytes(s.SiloFuseBytes[i]), humanBytes(s.E2EDistrBytes[i]))
		}
		fmt.Fprintf(w, "%12s %14s\n", "as sent", humanBytes(s.SiloFuseSentBytes))
	}
}

func humanBytes(b int64) string {
	const unit = 1024
	if b < unit {
		return fmt.Sprintf("%d B", b)
	}
	div, exp := int64(unit), 0
	for n := b / unit; n >= unit; n /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.2f %ciB", float64(b)/float64(div), "KMGTPE"[exp])
}

// Figure10XRow is one (dataset, model, codec) cell of the bytes-vs-error
// sweep: how many bytes the precision tier moved for the codec-framed
// tensor kinds, against what the same frames cost with an f64 body, and the
// reconstruction error it introduced. The f64 rows are the lossless baseline
// the other codecs are compared to.
type Figure10XRow struct {
	Dataset string
	Model   string // "silofuse" (latents + synth path) or "e2edistr" (activations + gradients)
	Codec   string
	// Messages / RawBytes / EncBytes aggregate the codec-framed tensor
	// kinds only — RawBytes with dense f64 bodies (the paper's count),
	// EncBytes as sent; TotalBytes counts every transport byte of the run.
	Messages   int64
	RawBytes   int64
	EncBytes   int64
	TotalBytes int64
	MaxErr     float64 // worst per-element reconstruction error across kinds
	MeanErr    float64 // worst per-kind mean reconstruction error
}

// Figure10X sweeps the wire codecs over real short runs of both
// distributed models and reports bytes vs reconstruction error per codec:
// SiloFuse exercises the latent upload and synthesis path, E2EDistr the
// activation/gradient exchange. Every run is deterministic, so the numbers
// are comparable across invocations.
func (c Config) Figure10X() ([]Figure10XRow, error) {
	specs, err := c.datasets("abalone")
	if err != nil {
		return nil, err
	}
	synthRows := c.SynthRows
	if synthRows > 512 {
		synthRows = 512
	}
	var out []Figure10XRow
	for _, spec := range specs {
		train, _ := c.prepare(spec)
		for _, codecName := range []string{"f64", "f32", "q8"} {
			// SiloFuse: stacked fit plus a synthesis pass, so both the
			// latent upload and the synth-latent return leg are framed.
			sfOpts := c.Opts
			sfOpts.AEIters = 20
			sfOpts.DiffIters = 20
			sfOpts.WireCodec = codecName
			sfRec := obs.NewRecorder()
			sfOpts.Recorder = sfRec
			sf := core.NewSiloFuse(sfOpts)
			if err := sf.Fit(train); err != nil {
				return nil, err
			}
			if _, err := sf.Sample(synthRows); err != nil {
				return nil, err
			}
			out = append(out, figure10xRow(spec.Name, "silofuse", codecName, sf.CommStats().Bytes, sfRec, c.Opts.Recorder))

			// E2EDistr: the split forward/backward moves activations and
			// gradients every iteration.
			e2eOpts := c.Opts
			e2eOpts.AEIters = 20
			e2eOpts.DiffIters = 0
			e2eOpts.WireCodec = codecName
			e2eRec := obs.NewRecorder()
			e2eOpts.Recorder = e2eRec
			e2e := core.NewE2EDistr(e2eOpts)
			if err := e2e.Fit(train); err != nil {
				return nil, err
			}
			out = append(out, figure10xRow(spec.Name, "e2edistr", codecName, e2e.CommStats().Bytes, e2eRec, c.Opts.Recorder))
		}
	}
	return out, nil
}

// figure10xRow aggregates one run's wire_* metrics into a sweep row and
// replays the per-kind accounting into the invocation's main recorder (if
// any), so the sweep's numbers reach the run manifest.
func figure10xRow(dataset, model, codecName string, total int64, rec, main *obs.Recorder) Figure10XRow {
	row := Figure10XRow{Dataset: dataset, Model: model, Codec: codecName, TotalBytes: total}
	wire := parseWireMetrics(rec.Snapshot())
	replayWireMetrics(main, wire)
	for _, st := range wire {
		row.Messages += st.Messages
		row.RawBytes += st.RawBytes
		row.EncBytes += st.Bytes
		if st.MaxErr > row.MaxErr {
			row.MaxErr = st.MaxErr
		}
		if st.MeanErr > row.MeanErr {
			row.MeanErr = st.MeanErr
		}
	}
	return row
}

// PrintFigure10X renders the sweep with each codec's total-byte ratio
// against the lossless f64 run of the same dataset and model.
func PrintFigure10X(w io.Writer, rows []Figure10XRow) {
	fmt.Fprintln(w, "Figure 10x: wire codec sweep — tensor bytes vs reconstruction error")
	base := make(map[string]int64)
	for _, r := range rows {
		if r.Codec == "f64" {
			base[r.Dataset+"/"+r.Model] = r.TotalBytes
		}
	}
	fmt.Fprintf(w, "%-10s %-9s %-6s %10s %12s %12s %12s %8s %10s %10s\n",
		"Dataset", "Model", "Codec", "Messages", "DenseBytes", "TensorBytes", "TotalBytes", "vs f64", "MaxErr", "MeanErr")
	for _, r := range rows {
		ratio := "--"
		if b := base[r.Dataset+"/"+r.Model]; b > 0 && r.TotalBytes > 0 {
			ratio = fmt.Sprintf("%.2fx", float64(b)/float64(r.TotalBytes))
		}
		fmt.Fprintf(w, "%-10s %-9s %-6s %10d %12s %12s %12s %8s %10.2e %10.2e\n",
			r.Dataset, r.Model, r.Codec, r.Messages, humanBytes(r.RawBytes), humanBytes(r.EncBytes), humanBytes(r.TotalBytes), ratio, r.MaxErr, r.MeanErr)
	}
}

// Figure11Point is one robustness configuration's scores.
type Figure11Point struct {
	Dataset     string
	Clients     int
	Permuted    bool
	Resemblance Stat
	Utility     Stat
}

// Figure11 reproduces the robustness experiment: SiloFuse resemblance and
// utility under 4 vs 8 clients and default vs permuted feature assignment
// (the paper permutes with seed 12343) on Heloc, Loan and Churn.
func (c Config) Figure11() ([]Figure11Point, error) { return project(c, (*Cells).Figure11) }

// Figure11 projects Figure 11 from the set. The configured client count
// with the default partition is Table III's SiloFuse cell.
func (s *Cells) Figure11() ([]Figure11Point, error) {
	specs, err := s.cfg.datasets("heloc", "loan", "churn")
	if err != nil {
		return nil, err
	}
	var out []Figure11Point
	for _, spec := range specs {
		for _, clients := range []int{4, 8} {
			for _, permuted := range []bool{false, true} {
				v := s.cfg.partition(spec, clients, permuted)
				out = append(out, Figure11Point{
					Dataset: spec.Name, Clients: clients, Permuted: permuted,
					Resemblance: s.stat(spec, "silofuse", v, "resemblance"),
					Utility:     s.stat(spec, "silofuse", v, "utility"),
				})
			}
		}
	}
	return out, nil
}

// PrintFigure11 renders the robustness grid.
func PrintFigure11(w io.Writer, points []Figure11Point) {
	fmt.Fprintln(w, "Figure 11: SiloFuse robustness to clients and feature permutation")
	fmt.Fprintf(w, "%-10s %8s %10s %14s %14s\n", "Dataset", "Clients", "Partition", "Resemblance", "Utility")
	for _, p := range points {
		part := "default"
		if p.Permuted {
			part = "permuted"
		}
		fmt.Fprintf(w, "%-10s %8d %10s %14s %14s\n", p.Dataset, p.Clients, part, p.Resemblance, p.Utility)
	}
}
