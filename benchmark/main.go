// Command benchmark is the repository's benchmark: five workloads that fit,
// synthesize and exchange bytes through the public API, reported as the
// end-to-end metrics of BENCHMARK.json from an untraced run and as per-layer
// metrics from a separate traced run. README.md is the glossary.
//
//	go run ./benchmark --workload train_narrow --seed 1 --seconds 10 --trace 0
//	go run ./benchmark                       # every workload, untraced then traced
//	go run ./benchmark -compare a.json b.json
//	go run ./benchmark -manifest             # print BENCHMARK.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// Deadlines of the watchdog: a single fit, request or set-up, and the whole
// run. The whole-run deadline sits below the 180 s the driver allows a run.
const (
	opDeadline  = 60 * time.Second
	runDeadline = 170 * time.Second
)

func main() {
	name := flag.String("workload", "all", "workload to run, or all (one child process per workload and trace mode)")
	seed := flag.Int64("seed", 1, "workload seed: drives data generation and model initialisation")
	seconds := flag.Float64("seconds", runSeconds, "how long the timed section measures")
	trace := flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_results", "results.json"), "result file; every run appends its record")
	compare := flag.Bool("compare", false, "compare two result files (arguments: a.json b.json) under the bounds of BENCHMARK.json")
	manifest := flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	flag.Parse()

	var err error
	switch {
	case *manifest:
		var js []byte
		if js, err = manifestJSON(); err == nil {
			_, err = os.Stdout.Write(js)
		}
	case *compare:
		if flag.NArg() != 2 {
			err = errors.New("-compare takes two result files")
		} else {
			err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		}
	case *name == "all":
		err = runAll(*seed, *seconds, *out)
	default:
		err = runOne(*name, *seed, *seconds, *trace, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runAll runs every workload untraced and then traced, each in a child
// process of its own so that peak memory and warm-up belong to one workload.
func runAll(seed int64, seconds float64, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			cmd := exec.Command(self, "-workload", w.Name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-out", out)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s trace %d: %w", w.Name, trace, err)
			}
		}
	}
	return nil
}

// runOne is one run of one workload: it prints every metric by name with
// its unit, appends the record to the result file and ends standard output
// with the one-line JSON summary the driver reads.
func runOne(name string, seed int64, seconds float64, trace int, out string) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	env := readEnvironment()
	env.warnIfLoaded()

	// The watchdog: Recv takes no context, so a wedged fit or request would
	// hang the run. An operation past its deadline is recorded as failed
	// and the process exits non-zero.
	expired := func(op string) {
		fmt.Fprintf(os.Stderr, "benchmark: %s of %s exceeded its deadline\n", op, name)
		appendResult(out, &result{Workload: name, Seed: seed, Trace: trace, Seconds: seconds, Env: env, Attempt: 1, Failed: 1, TimedOut: op})
		os.Exit(2)
	}
	whole := time.AfterFunc(runDeadline, func() { expired("the run") })
	defer whole.Stop()
	guard := watchdog(opDeadline, expired)

	warmCPU()
	var res *result
	if trace == 0 {
		res, err = runEndToEnd(w, seed, seconds, guard)
	} else {
		res, err = runTraced(w, seed, guard)
	}
	if err != nil {
		return err
	}
	res.Env = env
	printResult(res)
	if err := appendResult(out, res); err != nil {
		return err
	}
	summary, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempt, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(summary))
	return nil
}

// watchdog returns a guard that runs fn and calls expired(op) if fn is
// still running after deadline.
func watchdog(deadline time.Duration, expired func(op string)) guardFn {
	return func(op string, fn func() error) error {
		t := time.AfterFunc(deadline, func() { expired(op) })
		defer t.Stop()
		return fn()
	}
}

func printResult(res *result) {
	fmt.Printf("workload %s  seed %d  trace %d  gomaxprocs %d  load %.2f\n", res.Workload, res.Seed, res.Trace, res.Env.GOMAXPROCS, res.Env.Load1)
	defs := endToEnd
	if res.Trace == 1 {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Printf("  %-40s %16.6g %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	info := make([]string, 0, len(res.Info))
	for k := range res.Info {
		info = append(info, k)
	}
	sort.Strings(info)
	for _, k := range info {
		fmt.Printf("  (%s %.6g)\n", k, res.Info[k])
	}
	fmt.Printf("  attempted %d  failed %d\n", res.Attempt, res.Failed)
	for _, f := range res.Failures {
		fmt.Printf("  FAILED %s\n", f)
	}
}

// resultFile is the on-disk form: the records of every run appended so far.
type resultFile struct {
	Runs []*result `json:"runs"`
}

func readResults(path string) (*resultFile, error) {
	var f resultFile
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return &f, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func appendResult(path string, res *result) error {
	f, err := readResults(path)
	if err != nil {
		return err
	}
	f.Runs = append(f.Runs, res)
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
