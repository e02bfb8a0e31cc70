// Command silofuse-obs analyzes run telemetry offline: it summarizes a run
// directory's event stream into a per-phase table.
//
// Usage:
//
//	silofuse-obs summary <run-dir|events.jsonl>
//
// Event logs may be crash-truncated: a partial trailing line is skipped,
// all prior lines parse.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"silofuse/internal/experiments"
	"silofuse/internal/obs"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "summary":
		err = runSummary(os.Stdout, os.Args[2:])
	case "-h", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "silofuse-obs: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "silofuse-obs:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  silofuse-obs summary <run-dir|events.jsonl>
`)
}

// eventsPath resolves a run-dir-or-file argument to its events file.
func eventsPath(arg string) string {
	st, err := os.Stat(arg)
	if err == nil && st.IsDir() {
		return filepath.Join(arg, "events.jsonl")
	}
	return arg
}

func runSummary(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("summary", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("summary wants one run directory or events.jsonl")
	}
	path := eventsPath(fs.Arg(0))
	events, err := obs.ReadEventsFile(path)
	if err != nil {
		// A run dir without an event stream (crashed before the first
		// flush) still has artifacts worth reporting; degrade instead of
		// erroring.
		if st, serr := os.Stat(fs.Arg(0)); serr == nil && st.IsDir() && os.IsNotExist(err) {
			return summarizeArtifacts(w, fs.Arg(0))
		}
		return err
	}
	type phase struct {
		name        string
		start, dur  float64
		loss        float64
		hasLoss     bool
		bytesByKind map[string]float64
	}
	var phases []phase
	trainSteps := make(map[string]int)
	counts := make(map[string]int)
	for _, ev := range events {
		typ, _ := ev["type"].(string)
		counts[typ]++
		switch typ {
		case "phase":
			p := phase{}
			p.name, _ = ev["name"].(string)
			p.start, _ = ev["start_sec"].(float64)
			p.dur, _ = ev["dur_sec"].(float64)
			if attrs, ok := ev["attrs"].(map[string]any); ok {
				if l, ok := attrs["loss"].(float64); ok {
					p.loss, p.hasLoss = l, true
				}
			}
			if byKind, ok := ev["bus_bytes_by_kind"].(map[string]any); ok {
				p.bytesByKind = make(map[string]float64, len(byKind))
				for k, v := range byKind {
					if f, ok := v.(float64); ok {
						p.bytesByKind[k] = f
					}
				}
			}
			phases = append(phases, p)
		case "train":
			if stage, ok := ev["stage"].(string); ok {
				trainSteps[stage]++
			}
		}
	}
	fmt.Fprintf(w, "%s: %d events\n", path, len(events))
	types := make([]string, 0, len(counts))
	for t := range counts {
		types = append(types, t)
	}
	sort.Strings(types)
	for _, t := range types {
		fmt.Fprintf(w, "  %-8s %d\n", t, counts[t])
	}
	if len(phases) == 0 {
		fmt.Fprintln(w, "no phase events")
		return nil
	}
	fmt.Fprintf(w, "\n%-16s  %9s  %9s  %12s  %s\n", "PHASE", "START(s)", "DUR(s)", "LOSS", "WIRE BYTES (cumulative)")
	for _, p := range phases {
		loss := "--"
		if p.hasLoss {
			loss = fmt.Sprintf("%.6g", p.loss)
		}
		var wire string
		if len(p.bytesByKind) > 0 {
			kinds := make([]string, 0, len(p.bytesByKind))
			total := 0.0
			for k, v := range p.bytesByKind {
				kinds = append(kinds, k)
				total += v
			}
			sort.Strings(kinds)
			parts := make([]string, 0, len(kinds))
			for _, k := range kinds {
				parts = append(parts, fmt.Sprintf("%s=%.0f", k, p.bytesByKind[k]))
			}
			wire = fmt.Sprintf("%.0f (%s)", total, strings.Join(parts, " "))
		}
		fmt.Fprintf(w, "%-16s  %9.3f  %9.3f  %12s  %s\n", p.name, p.start, p.dur, loss, wire)
	}
	return nil
}

// summarizeArtifacts reports what a run directory holds when its
// events.jsonl is absent: the manifest and postmortem dumps.
func summarizeArtifacts(w io.Writer, dir string) error {
	fmt.Fprintf(w, "%s: no events.jsonl; reporting available artifacts\n", dir)
	found := false

	manPath := filepath.Join(dir, "manifest.json")
	if data, err := os.ReadFile(manPath); err == nil {
		found = true
		var man experiments.Manifest
		if jerr := json.Unmarshal(data, &man); jerr != nil {
			fmt.Fprintf(w, "\nmanifest.json: unparseable (%v)\n", jerr)
		} else {
			fmt.Fprintf(w, "\nmanifest.json: run %q, seed %d, created %s\n", man.Run, man.Seed, man.CreatedAt.Format("2006-01-02 15:04:05"))
			if len(man.Phases) > 0 {
				fmt.Fprintf(w, "%-16s  %9s  %9s\n", "PHASE", "START(s)", "DUR(s)")
				for _, ph := range man.Phases {
					fmt.Fprintf(w, "%-16s  %9.3f  %9.3f\n", ph.Name, ph.StartSec, ph.DurSec)
				}
			}
		}
	}

	if dumps, err := filepath.Glob(filepath.Join(dir, "postmortem", "*.json")); err == nil && len(dumps) > 0 {
		found = true
		sort.Strings(dumps)
		fmt.Fprintf(w, "\npostmortem dumps: %d\n", len(dumps))
		for _, d := range dumps {
			fmt.Fprintf(w, "  %s\n", filepath.Base(d))
		}
	}

	if !found {
		fmt.Fprintln(w, "no manifest or postmortems either — empty run directory")
	}
	return nil
}
