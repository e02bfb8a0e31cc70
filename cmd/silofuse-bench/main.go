// Command silofuse-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	silofuse-bench -exp table3 -scale fast
//	silofuse-bench -exp all -scale standard -trials 3
//	silofuse-bench -exp fig11 -datasets heloc,loan,churn
//	silofuse-bench -exp fig10 -run fig10   # perf record: results/fig10/manifest.json
//
// Experiment ids are listed by -h, from experimentTable below.
package main

import (
	"flag"
	"fmt"
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
	tracePath := flag.String("trace", "", "write a Chrome-trace JSON covering every model fitted")
	metricsFlag := flag.Bool("metrics", false, "print the metrics text exposition to stderr at the end")
	runName := flag.String("run", "", "write results/<run>/manifest.json — the run's perf record: phases, step histograms, wire bytes by kind and codec — and stream results/<run>/events.jsonl")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU pprof profile covering the whole run to this path (read it with go tool pprof)")
	memProfile := flag.String("memprofile", "", "write a heap pprof profile at the end of the run to this path")
	chaosProfile := flag.String("chaos-profile", "", "inject transport faults during distributed training: drop, dup, reorder, delay, corrupt, flaky, blackhole, crash (empty disables)")
	chaosSeed := flag.Int64("chaos-seed", 1, "seed of the deterministic fault schedule (with -chaos-profile)")
	wireCodec := flag.String("wire-codec", "", "wire codec framing dense tensor payloads: f64 (raw binary, lossless; the default), f32 (half the payload bytes), q8 (int8 quantization); fig10x sweeps all codecs regardless")
	computePrecision := flag.String("compute-precision", "", "kernel precision for sampling and decode (training is always f64): f64 (default) or f32")
	flag.Parse()

	exps, err := resolveExperiments(*exp)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err == nil {
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	var cfg experiments.Config
	switch *scale {
	case "fast":
		cfg = experiments.Fast()
	case "standard":
		cfg = experiments.Standard()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q (want fast or standard)\n", *scale)
		os.Exit(2)
	}
	if *datasets != "" {
		cfg.Datasets = strings.Split(*datasets, ",")
	}
	if *models != "" {
		cfg.Models = strings.Split(*models, ",")
	}
	if *trials > 0 {
		cfg.Trials = *trials
	}
	if *rows > 0 {
		cfg.RowCap = *rows
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *aeIters > 0 {
		cfg.Opts.AEIters = *aeIters
	}
	if *diffIters > 0 {
		cfg.Opts.DiffIters = *diffIters
	}
	if *ganIters > 0 {
		cfg.Opts.GANIters = *ganIters
	}
	if *utilCols > 0 {
		cfg.UtilCfg.MaxColumns = *utilCols
	}
	if *chaosProfile != "" {
		if _, err := silofuse.ChaosProfileByName(*chaosProfile); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		cfg.Opts.ChaosProfile = *chaosProfile
		cfg.Opts.ChaosSeed = *chaosSeed
	}
	if _, err := silofuse.WireCodecByName(*wireCodec); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg.Opts.WireCodec = *wireCodec
	switch *computePrecision {
	case "", "f64", "f32":
		cfg.Opts.ComputePrecision = *computePrecision
	default:
		fmt.Fprintf(os.Stderr, "unknown compute precision %q (want f64 or f32)\n", *computePrecision)
		os.Exit(2)
	}
	var rec *silofuse.Recorder
	if *tracePath != "" || *metricsFlag || *runName != "" {
		rec = silofuse.NewRecorder()
		cfg.Opts.Recorder = rec
	}
	if *runName != "" {
		ew, err := silofuse.OpenEventLog(filepath.Join("results", *runName, "events.jsonl"))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer ew.Close()
		rec.SetEvents(ew)
		ew.Emit("run-start", map[string]any{"run": *runName, "exp": *exp, "scale": *scale, "seed": cfg.Seed})
	}
	rt := experiments.CurrentRuntime()
	fmt.Printf("runtime: %s %s/%s, %d CPUs, GOMAXPROCS %d, matmul kernel %s\n\n",
		rt.GoVersion, rt.GOOS, rt.GOARCH, rt.NumCPU, rt.GOMAXPROCS, rt.Kernel)
	for _, e := range exps {
		start := time.Now()
		if err := e.run(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.id, err)
			os.Exit(1)
		}
		elapsed := time.Since(start)
		fmt.Printf("\n[%s done in %s]\n\n", e.id, elapsed.Round(time.Millisecond))
		if rec != nil {
			rec.Events.Emit("experiment", map[string]any{"exp": e.id, "dur_sec": elapsed.Seconds()})
		}
	}
	if *cpuProfile != "" {
		pprof.StopCPUProfile()
		fmt.Printf("wrote cpu profile %s\n", *cpuProfile)
	}
	if *memProfile != "" {
		if err := writeHeapProfile(*memProfile); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote heap profile %s\n", *memProfile)
	}
	if err := writeTelemetry(rec, *tracePath, *metricsFlag, *runName, *exp, cfg.Seed); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// writeHeapProfile collects garbage, so the profile shows what the run still
// holds, and writes the heap profile to path.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeTelemetry emits the optional trace file, metrics exposition and run
// manifest once all experiments have finished.
func writeTelemetry(rec *silofuse.Recorder, tracePath string, metrics bool, runName, exp string, seed int64) error {
	if rec == nil {
		return nil
	}
	if tracePath != "" {
		f, err := os.Create(tracePath)
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
		fmt.Printf("wrote trace %s\n", tracePath)
	}
	if metrics {
		if err := rec.Reg.WriteText(os.Stderr); err != nil {
			return err
		}
	}
	if runName != "" {
		man := silofuse.NewRunManifest(runName, seed)
		man.Config["exp"] = exp
		man.FromRecorder(rec)
		dir := filepath.Join("results", runName)
		if err := man.Write(dir); err != nil {
			return err
		}
		fmt.Printf("wrote manifest %s\n", filepath.Join(dir, "manifest.json"))
	}
	return nil
}

// experiment is one runnable -exp id.
type experiment struct {
	id    string
	gloss string // shown after the id in the flag help; may be empty
	inAll bool   // part of "-exp all" (table3/table4 are not: quality runs both in one pass)
	run   func(experiments.Config) error
}

// experimentTable is the one ordered list of experiment ids: the -exp help
// text, the "all" expansion and the up-front validation of -exp all read it,
// so adding or dropping an experiment is a change to this table alone.
var experimentTable = []experiment{
	{"table2", "", true, func(cfg experiments.Config) error {
		rows, err := cfg.TableII()
		if err != nil {
			return err
		}
		experiments.PrintTableII(os.Stdout, rows)
		return nil
	}},
	{"table3", "resemblance", false, func(cfg experiments.Config) error {
		g, err := cfg.TableIII()
		if err != nil {
			return err
		}
		experiments.PrintGrid(os.Stdout, g)
		return nil
	}},
	{"table4", "utility", false, func(cfg experiments.Config) error {
		g, err := cfg.TableIV()
		if err != nil {
			return err
		}
		experiments.PrintGrid(os.Stdout, g)
		return nil
	}},
	{"quality", "tables 3+4 in one pass", true, func(cfg experiments.Config) error {
		res, util, err := cfg.Quality()
		if err != nil {
			return err
		}
		experiments.PrintGrid(os.Stdout, res)
		fmt.Println()
		experiments.PrintGrid(os.Stdout, util)
		return nil
	}},
	{"table5", "correlation differences", true, func(cfg experiments.Config) error {
		cells, err := cfg.TableV()
		if err != nil {
			return err
		}
		experiments.PrintTableV(os.Stdout, cells)
		return nil
	}},
	{"table6", "privacy", true, func(cfg experiments.Config) error {
		g, err := cfg.TableVI()
		if err != nil {
			return err
		}
		experiments.PrintGrid(os.Stdout, g)
		return nil
	}},
	{"table7", "privacy vs steps", true, func(cfg experiments.Config) error {
		rows, err := cfg.TableVII()
		if err != nil {
			return err
		}
		experiments.PrintTableVII(os.Stdout, rows)
		return nil
	}},
	{"fig10", "communication", true, func(cfg experiments.Config) error {
		series, err := cfg.Figure10()
		if err != nil {
			return err
		}
		experiments.PrintFigure10(os.Stdout, series)
		return nil
	}},
	{"fig10x", "wire codec sweep", true, func(cfg experiments.Config) error {
		rows, err := cfg.Figure10X()
		if err != nil {
			return err
		}
		experiments.PrintFigure10X(os.Stdout, rows)
		return nil
	}},
	{"fig11", "robustness", true, func(cfg experiments.Config) error {
		points, err := cfg.Figure11()
		if err != nil {
			return err
		}
		experiments.PrintFigure11(os.Stdout, points)
		return nil
	}},
	{"ablations", "", false, func(cfg experiments.Config) error {
		rows, err := cfg.Ablations()
		if err != nil {
			return err
		}
		experiments.PrintAblations(os.Stdout, rows)
		return nil
	}},
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
