package main

import (
	"errors"
	"fmt"
	"io"
)

// verdict of one (workload, metric) row when B is compared against A.
const (
	better     = "better"
	same       = "same"
	worse      = "worse"
	unresolved = "unresolved" // run-to-run spread wider than the bound
)

// judge applies one end-to-end metric's bound to two sets of runs: B's
// median is worse when it moved in the bad direction by more than the bound
// as a share of A's median, and the row is unresolved when either side's
// own spread is wider than the bound. change is signed so that positive
// means worse.
func judge(d metricDef, a, b []float64) (verdict string, change, noise float64) {
	ma, mb := median(a), median(b)
	change = (mb - ma) / ma
	if d.Better == "higher" {
		change = -change
	}
	noise = max(spread(a), spread(b))
	switch {
	case noise > d.Bound:
		return unresolved, change, noise
	case change > d.Bound:
		return worse, change, noise
	case change < -d.Bound:
		return better, change, noise
	}
	return same, change, noise
}

// compareFiles prints one row per workload and end-to-end metric for the
// untraced runs of two result files, and fails when any row is worse.
func compareFiles(out io.Writer, pathA, pathB string) error {
	fa, err := readResults(pathA)
	if err != nil {
		return err
	}
	fb, err := readResults(pathB)
	if err != nil {
		return err
	}
	values := func(f *resultFile, workload, metric string) []float64 {
		var vs []float64
		for _, r := range f.Runs {
			if v, ok := r.Metrics[metric]; ok && r.Workload == workload && r.Trace == 0 {
				vs = append(vs, v.Value)
			}
		}
		return vs
	}
	counts := map[string]int{}
	fmt.Fprintf(out, "%-18s %-12s %5s %14s %14s %8s %8s %7s  %s\n", "workload", "metric", "runs", "median A", "median B", "change", "spread", "bound", "verdict")
	for _, w := range workloads {
		for _, d := range endToEnd {
			a, b := values(fa, w.Name, d.Name), values(fb, w.Name, d.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			verdict, change, noise := judge(d, a, b)
			counts[verdict]++
			fmt.Fprintf(out, "%-18s %-12s %2d/%-2d %14.6g %14.6g %+7.1f%% %7.1f%% %6.1f%%  %s\n",
				w.Name, d.Name, len(a), len(b), median(a), median(b), 100*change, 100*noise, 100*d.Bound, verdict)
		}
	}
	fmt.Fprintf(out, "%d better, %d same, %d worse, %d unresolved (change: positive is worse)\n", counts[better], counts[same], counts[worse], counts[unresolved])
	if counts[better]+counts[same]+counts[worse]+counts[unresolved] == 0 {
		return errors.New("the two files share no untraced run of any workload")
	}
	if counts[worse] > 0 {
		return fmt.Errorf("%d rows are worse than their bound allows", counts[worse])
	}
	return nil
}
