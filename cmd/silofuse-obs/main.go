// Command silofuse-obs analyzes run telemetry offline: it summarizes a run
// directory's event stream into a per-phase table and renders top-N tables
// from phase-scoped pprof captures.
//
// Usage:
//
//	silofuse-obs summary <run-dir|events.jsonl>
//	silofuse-obs profile [flags] <run-dir|profiles-dir|profile.pb.gz>
//
// Event logs may be crash-truncated: a partial trailing line is skipped,
// all prior lines parse.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"silofuse/internal/experiments"
	"silofuse/internal/obs"
	"silofuse/internal/obs/profile"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "summary":
		err = runSummary(os.Args[2:])
	case "profile":
		err = runProfile(os.Args[2:])
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
  silofuse-obs profile [flags] <run-dir|profiles-dir|profile.pb.gz>

profile flags:
  -phase            phase to show (default: every captured phase)
  -kind             profile kind: cpu|heap|mutex|block       (default cpu)
  -sample           sample type to aggregate (default: cpu or alloc_space)
  -top              rows in the function table               (default 20)
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

func runSummary(args []string) error {
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
		// flush, or recorded with -profile-phases only) still has
		// artifacts worth reporting; degrade instead of erroring.
		if st, serr := os.Stat(fs.Arg(0)); serr == nil && st.IsDir() && os.IsNotExist(err) {
			return summarizeArtifacts(fs.Arg(0))
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
	fmt.Printf("%s: %d events\n", path, len(events))
	types := make([]string, 0, len(counts))
	for t := range counts {
		types = append(types, t)
	}
	sort.Strings(types)
	for _, t := range types {
		fmt.Printf("  %-8s %d\n", t, counts[t])
	}
	if len(phases) == 0 {
		fmt.Println("no phase events")
		return nil
	}
	fmt.Printf("\n%-16s  %9s  %9s  %12s  %s\n", "PHASE", "START(s)", "DUR(s)", "LOSS", "WIRE BYTES (cumulative)")
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
		fmt.Printf("%-16s  %9.3f  %9.3f  %12s  %s\n", p.name, p.start, p.dur, loss, wire)
	}
	return nil
}

// summarizeArtifacts reports what a run directory holds when its
// events.jsonl is absent: the manifest, postmortem dumps, and captured
// phase profiles.
func summarizeArtifacts(dir string) error {
	fmt.Printf("%s: no events.jsonl; reporting available artifacts\n", dir)
	found := false

	manPath := filepath.Join(dir, "manifest.json")
	if data, err := os.ReadFile(manPath); err == nil {
		found = true
		var man experiments.Manifest
		if jerr := json.Unmarshal(data, &man); jerr != nil {
			fmt.Printf("\nmanifest.json: unparseable (%v)\n", jerr)
		} else {
			fmt.Printf("\nmanifest.json: run %q, seed %d, created %s\n", man.Run, man.Seed, man.CreatedAt.Format("2006-01-02 15:04:05"))
			if len(man.Phases) > 0 {
				fmt.Printf("%-16s  %9s  %9s\n", "PHASE", "START(s)", "DUR(s)")
				for _, ph := range man.Phases {
					fmt.Printf("%-16s  %9.3f  %9.3f\n", ph.Name, ph.StartSec, ph.DurSec)
				}
			}
		}
	}

	if dumps, err := filepath.Glob(filepath.Join(dir, "postmortem", "*.json")); err == nil && len(dumps) > 0 {
		found = true
		sort.Strings(dumps)
		fmt.Printf("\npostmortem dumps: %d\n", len(dumps))
		for _, d := range dumps {
			fmt.Printf("  %s\n", filepath.Base(d))
		}
	}

	if entries := readProfileIndex(filepath.Join(dir, experiments.ProfilesSubdir)); len(entries) > 0 {
		found = true
		fmt.Printf("\nphase profiles: %d\n", len(entries))
		fmt.Printf("  %-16s  %-6s  %9s  %9s\n", "PHASE", "KIND", "BYTES", "DUR(s)")
		for _, e := range entries {
			fmt.Printf("  %-16s  %-6s  %9d  %9.3f\n", e.Phase, e.Kind, e.Bytes, e.DurSec)
		}
	}

	if !found {
		fmt.Println("no manifest, postmortems, or profiles either — empty run directory")
	}
	return nil
}

// readProfileIndex loads profiles/index.json (nil when absent/invalid).
func readProfileIndex(dir string) []profile.Entry {
	data, err := os.ReadFile(filepath.Join(dir, "index.json"))
	if err != nil {
		return nil
	}
	var idx struct {
		Entries []profile.Entry `json:"entries"`
	}
	if err := json.Unmarshal(data, &idx); err != nil {
		return nil
	}
	return idx.Entries
}

// profileOperandDir resolves the profile subcommand's operand to the
// directory holding .pb.gz files ("" when the operand is itself a file).
func profileOperandDir(arg string) (string, bool) {
	st, err := os.Stat(arg)
	if err != nil || !st.IsDir() {
		return "", false
	}
	sub := filepath.Join(arg, experiments.ProfilesSubdir)
	if fi, err := os.Stat(sub); err == nil && fi.IsDir() {
		return sub, true
	}
	return arg, true
}

func runProfile(args []string) error {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	phase := fs.String("phase", "", "phase to show (default: every captured phase)")
	kind := fs.String("kind", profile.KindCPU, "profile kind: cpu|heap|mutex|block")
	sample := fs.String("sample", "", "sample type to aggregate (default: cpu or alloc_space)")
	top := fs.Int("top", 20, "rows in the function table")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("profile wants one run dir, profiles dir, or .pb.gz file")
	}
	arg := fs.Arg(0)

	var files []string
	if dir, isDir := profileOperandDir(arg); isDir {
		if *phase != "" {
			files = []string{filepath.Join(dir, profile.EntryFileName(*phase, *kind))}
		} else {
			glob, err := filepath.Glob(filepath.Join(dir, "*."+*kind+".pb.gz"))
			if err != nil {
				return err
			}
			sort.Strings(glob)
			files = glob
		}
		if len(files) == 0 {
			return fmt.Errorf("no %s profiles under %s", *kind, dir)
		}
	} else {
		files = []string{arg}
	}

	col := *sample
	if col == "" && *kind == profile.KindHeap {
		col = "alloc_space"
	}
	for _, path := range files {
		if err := printProfileTop(path, col, *top); err != nil {
			return err
		}
	}
	return nil
}

// printProfileTop decodes one profile file and prints its top-N table.
func printProfileTop(path, sample string, top int) error {
	p, err := profile.ParsePprofFile(path)
	if err != nil {
		return err
	}
	flat, err := p.Flatten(sample)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fmt.Printf("\n%s  (%s/%s, total %s)\n", filepath.Base(path), flat.Type, flat.Unit, profile.FormatValue(flat.Total, flat.Unit))
	rows := flat.Top(top)
	if len(rows) == 0 {
		fmt.Println("  no samples")
		return nil
	}
	width := len("FUNCTION")
	for _, st := range rows {
		if len(st.Name) > width {
			width = len(st.Name)
		}
	}
	fmt.Printf("  %-*s  %12s  %12s\n", width, "FUNCTION", "SELF", "CUM")
	for _, st := range rows {
		fmt.Printf("  %-*s  %12s  %12s\n", width, st.Name,
			profile.FormatValue(st.Self, flat.Unit), profile.FormatValue(st.Cum, flat.Unit))
	}
	return nil
}
