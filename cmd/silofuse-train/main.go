// Command silofuse-train trains a synthesizer on one of the benchmark
// datasets (or a CSV matching a benchmark schema) and writes a synthetic
// CSV, optionally keeping the output vertically partitioned (one CSV per
// client).
//
// Usage:
//
//	silofuse-train -dataset loan -model silofuse -rows 1000 -out synth.csv
//	silofuse-train -dataset adult -model tabddpm -out synth.csv
//	silofuse-train -dataset loan -partitioned -out synth  # synth.c0.csv ...
//	silofuse-train -dataset loan -trace trace.json -run demo
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"silofuse"
)

// config collects the parsed CLI flags.
type config struct {
	dataset, in, model string
	rows, trainRows    int
	clients, iters     int
	out                string
	partitioned        bool
	seed               int64
	saveModel          string
	loadModel          string
	tracePath          string
	runName            string
	wireCodec          string
	computePrecision   string
}

func main() {
	var c config
	flag.StringVar(&c.dataset, "dataset", "loan", "benchmark dataset name")
	flag.StringVar(&c.in, "in", "", "optional input CSV (must match the dataset's schema); default: simulated data")
	flag.StringVar(&c.model, "model", "silofuse", "synthesizer registry name")
	flag.IntVar(&c.rows, "rows", 1000, "synthetic rows to generate")
	flag.IntVar(&c.trainRows, "train-rows", 2000, "training rows when simulating input data")
	flag.IntVar(&c.clients, "clients", 4, "silo count for distributed models")
	flag.IntVar(&c.iters, "iters", 0, "override training iterations (AE and diffusion)")
	flag.StringVar(&c.out, "out", "synthetic.csv", "output CSV path (or prefix with -partitioned)")
	flag.BoolVar(&c.partitioned, "partitioned", false, "keep output vertically partitioned (silofuse only)")
	flag.Int64Var(&c.seed, "seed", 1, "random seed")
	flag.StringVar(&c.saveModel, "save", "", "persist the trained model state to this path (silofuse only)")
	flag.StringVar(&c.loadModel, "load", "", "restore model state from this path instead of training (silofuse only)")
	flag.StringVar(&c.tracePath, "trace", "", "write a Chrome-trace JSON of the run to this path")
	flag.StringVar(&c.runName, "run", "", "write results/<run>/manifest.json with config, phases, metrics and wire stats")
	flag.StringVar(&c.wireCodec, "wire-codec", "f64", "precision tier framing tensor payloads on the wire: f64 (lossless, default), f32, q8")
	flag.StringVar(&c.computePrecision, "compute-precision", "f64", "kernel precision for sampling and decode (training is always f64): f64 or f32")
	flag.Parse()

	if err := run(c); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(c config) error {
	spec, err := silofuse.DatasetByName(c.dataset)
	if err != nil {
		return err
	}
	var train *silofuse.Table
	if c.in != "" {
		f, err := os.Open(c.in)
		if err != nil {
			return err
		}
		defer f.Close()
		train, err = silofuse.ReadCSV(f, spec.Schema())
		if err != nil {
			return fmt.Errorf("read %s: %w", c.in, err)
		}
	} else {
		if c.trainRows > spec.PaperRows {
			c.trainRows = spec.PaperRows
		}
		train = spec.Generate(c.trainRows, c.seed)
	}

	opts := silofuse.DefaultOptions()
	opts.Seed = c.seed
	opts.Clients = c.clients
	if c.iters > 0 {
		opts.AEIters = c.iters
		opts.DiffIters = c.iters
		opts.GANIters = c.iters
	}
	if _, err := silofuse.WireCodecByName(c.wireCodec); err != nil {
		return err
	}
	opts.WireCodec = c.wireCodec
	opts.ComputePrecision = c.computePrecision
	var rec *silofuse.Recorder
	if c.tracePath != "" || c.runName != "" {
		rec = silofuse.NewRecorder()
		opts.Recorder = rec
	}
	m, err := silofuse.NewSynthesizer(c.model, opts)
	if err != nil {
		return err
	}
	if c.loadModel != "" {
		sf, ok := m.(*silofuse.SiloFuseModel)
		if !ok {
			return fmt.Errorf("-load requires the silofuse model, got %s", m.Name())
		}
		f, err := os.Open(c.loadModel)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := sf.Load(train, f); err != nil {
			return err
		}
		fmt.Printf("restored %s state from %s\n", m.Name(), c.loadModel)
	} else {
		fmt.Printf("training %s on %s (%d rows, %d columns)...\n", m.Name(), c.dataset, train.Rows(), train.Schema.NumColumns())
		if err := m.Fit(train); err != nil {
			return err
		}
	}
	if c.saveModel != "" {
		sf, ok := m.(*silofuse.SiloFuseModel)
		if !ok {
			return fmt.Errorf("-save requires the silofuse model, got %s", m.Name())
		}
		if err := writeFileAtomic(c.saveModel, sf.Save); err != nil {
			return err
		}
		fmt.Printf("saved model state to %s\n", c.saveModel)
	}

	final := map[string]float64{}
	if c.partitioned {
		sf, ok := m.(*silofuse.SiloFuseModel)
		if !ok {
			return fmt.Errorf("-partitioned requires the silofuse model, got %s", m.Name())
		}
		parts, err := sf.SamplePartitioned(c.rows)
		if err != nil {
			return err
		}
		for i, p := range parts {
			path := fmt.Sprintf("%s.c%d.csv", c.out, i)
			if err := writeCSV(path, p); err != nil {
				return err
			}
			fmt.Printf("client %d: wrote %s (%d columns)\n", i, path, p.Schema.NumColumns())
		}
		return writeTelemetry(c, m, rec, final)
	}

	synth, err := m.Sample(c.rows)
	if err != nil {
		return err
	}
	if err := writeCSV(c.out, synth); err != nil {
		return err
	}
	rep, err := silofuse.Resemblance(train, synth, silofuse.DefaultResemblanceConfig())
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d rows); resemblance %.1f/100\n", c.out, synth.Rows(), rep.Score)
	final["resemblance"] = rep.Score
	return writeTelemetry(c, m, rec, final)
}

// writeTelemetry emits the optional trace file and run manifest once the
// run has finished.
func writeTelemetry(c config, m silofuse.Synthesizer, rec *silofuse.Recorder, final map[string]float64) error {
	if rec == nil {
		return nil
	}
	if c.tracePath != "" {
		f, err := os.Create(c.tracePath)
		if err != nil {
			return err
		}
		if err := rec.Trace.WriteChromeTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote trace %s\n", c.tracePath)
	}
	if c.runName != "" {
		man := silofuse.NewRunManifest(c.runName, c.seed)
		man.Config["dataset"] = c.dataset
		man.Config["model"] = c.model
		man.Config["clients"] = c.clients
		man.Config["train_rows"] = c.trainRows
		man.Config["synth_rows"] = c.rows
		if c.iters > 0 {
			man.Config["iters"] = c.iters
		}
		for k, v := range final {
			man.FinalMetrics[k] = v
		}
		man.FromRecorder(rec)
		if cs, ok := m.(interface {
			CommStats() silofuse.TransportStats
		}); ok {
			man.FromStats(cs.CommStats())
		}
		dir := filepath.Join("results", c.runName)
		if err := man.Write(dir); err != nil {
			return err
		}
		fmt.Printf("wrote manifest %s\n", filepath.Join(dir, "manifest.json"))
	}
	return nil
}

// writeFileAtomic writes path through a temporary file in the same directory
// and renames it into place once it is complete and on disk, so a crash, a
// full disk or a failed write never leaves a truncated file under the name
// the next -load opens.
func writeFileAtomic(path string, write func(io.Writer) error) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	if err = write(f); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}

func writeCSV(path string, t *silofuse.Table) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return t.WriteCSV(f)
}
