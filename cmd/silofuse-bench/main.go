// Command silofuse-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	silofuse-bench -exp table3 -scale fast
//	silofuse-bench -exp all -scale standard -trials 3
//	silofuse-bench -exp fig11 -datasets heloc,loan,churn
//	silofuse-bench -exp fig10 -run fig10   # perf record: results/fig10/manifest.json
//	silofuse-bench -exp table3,table6 -run t36   # + every cell's scores: results/t36/cells.jsonl
//
// Experiment ids are listed by -h, from experimentTable below.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"silofuse"
	"silofuse/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment id or comma-separated list: "+experimentHelp())
	scale := flag.String("scale", "fast", "fast or standard")
	datasets := flag.String("datasets", "", "comma-separated dataset subset (default: experiment's own)")
	models := flag.String("models", "", "comma-separated model subset (default: experiment's own)")
	trials := flag.Int("trials", 0, "override trial count")
	rows := flag.Int("rows", 0, "override dataset row cap")
	seed := flag.Int64("seed", 0, "override base seed")
	aeIters := flag.Int("ae-iters", 0, "override autoencoder iterations")
	diffIters := flag.Int("diff-iters", 0, "override diffusion iterations")
	ganIters := flag.Int("gan-iters", 0, "override GAN iterations")
	utilCols := flag.Int("util-cols", 0, "cap on utility target columns (0 = all)")
	tracePath := flag.String("trace", "", "write a Chrome-trace JSON covering every model fitted, one lane per cell")
	runName := flag.String("run", "", "write results/<run>/manifest.json — the run's perf record: phases, step histograms, wire bytes by kind and codec — and cells.jsonl, every cell's scores")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU pprof profile covering the whole run to this path (read it with go tool pprof)")
	memProfile := flag.String("memprofile", "", "write a heap pprof profile at the end of the run to this path")
	wireCodec := flag.String("wire-codec", "", "wire codec framing dense tensor payloads: f64 (raw binary, lossless; the default), f32 (half the payload bytes), q8 (int8 quantization); fig10x sweeps all codecs regardless")
	computePrecision := flag.String("compute-precision", "", "kernel precision for sampling and decode (training is always f64): f64 (default) or f32")
	flag.Parse()

	exps, err := resolveExperiments(*exp)
	exitOn(err, 2)

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err == nil {
			err = pprof.StartCPUProfile(f)
		}
		exitOn(err, 1)
	}

	var cfg experiments.Config
	switch *scale {
	case "fast":
		cfg = experiments.Fast()
	case "standard":
		cfg = experiments.Standard()
	default:
		exitOn(fmt.Errorf("unknown scale %q (want fast or standard)", *scale), 2)
	}
	if *datasets != "" {
		cfg.Datasets = strings.Split(*datasets, ",")
	}
	if *models != "" {
		cfg.Models = strings.Split(*models, ",")
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	// A positive count overrides the scale's.
	for _, o := range []struct{ dst, flag *int }{{&cfg.Trials, trials}, {&cfg.RowCap, rows}, {&cfg.Opts.AEIters, aeIters},
		{&cfg.Opts.DiffIters, diffIters}, {&cfg.Opts.GANIters, ganIters}, {&cfg.UtilCfg.MaxColumns, utilCols}} {
		if *o.flag > 0 {
			*o.dst = *o.flag
		}
	}
	_, err = silofuse.WireCodecByName(*wireCodec)
	exitOn(err, 2)
	cfg.Opts.WireCodec = *wireCodec
	switch *computePrecision {
	case "", "f64", "f32":
		cfg.Opts.ComputePrecision = *computePrecision
	default:
		exitOn(fmt.Errorf("unknown compute precision %q (want f64 or f32)", *computePrecision), 2)
	}
	var rec *silofuse.Recorder
	if *tracePath != "" || *runName != "" {
		rec = silofuse.NewRecorder()
		cfg.Opts.Recorder = rec
	}
	// Every experiment that fits models reads its cells from one set: each
	// projection is called once on the empty set to gather what it reads,
	// the set runs each distinct cell once, and the projections print.
	cells := experiments.NewCells(cfg)
	for _, e := range exps {
		if e.cells != nil {
			exitOn(e.cells(cells, io.Discard), 2)
		}
	}
	rt := experiments.CurrentRuntime()
	fmt.Printf("runtime: %s %s/%s, %d CPUs, GOMAXPROCS %d, matmul kernel %s\n",
		rt.GoVersion, rt.GOOS, rt.GOARCH, rt.NumCPU, rt.GOMAXPROCS, rt.Kernel)
	if cells.Len() > 0 {
		start := time.Now()
		exitOn(cells.Run(), 1)
		fmt.Printf("[%d cells done in %s]\n", cells.Len(), time.Since(start).Round(time.Millisecond))
	}
	fmt.Println()
	for _, e := range exps {
		start := time.Now()
		var err error
		if e.cells != nil {
			err = e.cells(cells, os.Stdout)
		} else {
			err = e.run(cfg, os.Stdout)
		}
		if err != nil {
			exitOn(fmt.Errorf("%s: %w", e.id, err), 1)
		}
		fmt.Printf("\n[%s done in %s]\n\n", e.id, time.Since(start).Round(time.Millisecond))
	}
	if *cpuProfile != "" {
		pprof.StopCPUProfile()
		fmt.Printf("wrote cpu profile %s\n", *cpuProfile)
	}
	if *memProfile != "" {
		// Collect garbage first, so the profile shows what the run still holds.
		exitOn(writeFile(*memProfile, func(w io.Writer) error { runtime.GC(); return pprof.WriteHeapProfile(w) }), 1)
		fmt.Printf("wrote heap profile %s\n", *memProfile)
	}
	writeTelemetry(rec, cells, *tracePath, *runName, *exp, cfg.Seed)
}

// exitOn prints a non-nil err and exits with code.
func exitOn(err error, code int) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(code)
	}
}

// writeTelemetry emits the optional trace file and run manifest once all
// experiments have finished. The trace merges rec's lane with one lane per
// cell, in cell order; the manifest's phases are every lane's; a -run also
// records the cells' scores in cells.jsonl.
func writeTelemetry(rec *silofuse.Recorder, cells *experiments.Cells, tracePath, runName, exp string, seed int64) {
	if rec == nil {
		return
	}
	if tracePath != "" {
		var docs []io.Reader
		for _, r := range append([]*silofuse.Recorder{rec}, cells.Recorders()...) {
			var buf bytes.Buffer
			exitOn(r.Trace.WriteChromeTrace(&buf), 1)
			docs = append(docs, &buf)
		}
		exitOn(writeFile(tracePath, func(w io.Writer) error { return silofuse.MergeChromeTraces(w, docs...) }), 1)
		fmt.Printf("wrote trace %s\n", tracePath)
	}
	if runName != "" {
		man := silofuse.NewRunManifest(runName, seed)
		man.Config["exp"] = exp
		man.FromRecorder(rec, cells.Recorders()...)
		dir := filepath.Join("results", runName)
		exitOn(man.Write(dir), 1)
		exitOn(writeFile(filepath.Join(dir, "cells.jsonl"), cells.WriteRecord), 1)
		fmt.Printf("wrote manifest %s and cells %s\n", filepath.Join(dir, "manifest.json"), filepath.Join(dir, "cells.jsonl"))
	}
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// experiment is one runnable -exp id: a projection of the run's cell set
// (cells), or an experiment that fits no cells and runs on its own (run).
type experiment struct {
	id    string
	gloss string // shown after the id in the flag help; may be empty
	inAll bool   // part of "-exp all"
	cells func(*experiments.Cells, io.Writer) error
	run   func(experiments.Config, io.Writer) error
}

// show runs an experiment — a projection of the cell set, or one that fits
// no cells — and prints its result with print.
func show[A, T any](f func(A) (T, error), print func(io.Writer, T)) func(A, io.Writer) error {
	return func(a A, w io.Writer) error {
		v, err := f(a)
		if err == nil {
			print(w, v)
		}
		return err
	}
}

// experimentTable is the one ordered list of experiment ids: the -exp help
// text, the "all" expansion and the up-front validation of -exp all read it,
// so adding or dropping an experiment is a change to this table alone.
var experimentTable = []experiment{
	{id: "table2", inAll: true, run: show(experiments.Config.TableII, experiments.PrintTableII)},
	{id: "table3", gloss: "resemblance", inAll: true, cells: show((*experiments.Cells).TableIII, experiments.PrintGrid)},
	{id: "table4", gloss: "utility", inAll: true, cells: show((*experiments.Cells).TableIV, experiments.PrintGrid)},
	{id: "table5", gloss: "correlation differences", inAll: true, cells: show((*experiments.Cells).TableV, experiments.PrintTableV)},
	{id: "table6", gloss: "privacy", inAll: true, cells: show((*experiments.Cells).TableVI, experiments.PrintGrid)},
	{id: "table7", gloss: "privacy vs steps", inAll: true, cells: show((*experiments.Cells).TableVII, experiments.PrintTableVII)},
	{id: "fig10", gloss: "communication", inAll: true, run: show(experiments.Config.Figure10, experiments.PrintFigure10)},
	{id: "fig10x", gloss: "wire codec sweep", inAll: true, run: show(experiments.Config.Figure10X, experiments.PrintFigure10X)},
	{id: "fig11", gloss: "robustness", inAll: true, cells: show((*experiments.Cells).Figure11, experiments.PrintFigure11)},
	{id: "ablations", cells: show((*experiments.Cells).Ablations, experiments.PrintAblations)},
}

// experimentHelp renders the table as the id list of the -exp flag text.
func experimentHelp() string {
	var b strings.Builder
	for _, e := range experimentTable {
		b.WriteString(e.id)
		if e.gloss != "" {
			b.WriteString(" (" + e.gloss + ")")
		}
		b.WriteString(", ")
	}
	b.WriteString("all")
	return b.String()
}

// resolveExperiments turns a -exp value — "all" or a comma-separated id
// list — into the experiments to run, in the order given. Any unknown id
// fails the whole list, so a typo is reported before the first experiment
// starts rather than after the ones ahead of it have run.
func resolveExperiments(spec string) ([]experiment, error) {
	var out []experiment
	if spec == "all" {
		for _, e := range experimentTable {
			if e.inAll {
				out = append(out, e)
			}
		}
		return out, nil
	}
	for _, id := range strings.Split(spec, ",") {
		i := slices.IndexFunc(experimentTable, func(e experiment) bool { return e.id == id })
		if i < 0 {
			valid := make([]string, len(experimentTable))
			for k, e := range experimentTable {
				valid[k] = e.id
			}
			return nil, fmt.Errorf("unknown experiment %q in -exp %q (want all, or a comma-separated list of: %s)", id, spec, strings.Join(valid, ", "))
		}
		out = append(out, experimentTable[i])
	}
	return out, nil
}
