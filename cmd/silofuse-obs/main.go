// Command silofuse-obs reads the records a run leaves in results/<run>/:
// the manifest of a finished run and the flight-recorder postmortems of a
// failed one.
//
// Usage:
//
//	silofuse-obs summary <run-dir>
//
// summary prints the manifest's phase table (with each phase's loss) and its
// wire bytes by message kind, then, for each postmortem, the party, the
// error that ended its run and the last span it finished.
package main

import (
	"encoding/json"
	"errors"
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
  silofuse-obs summary <run-dir>
`)
}

func runSummary(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("summary", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("summary wants one run directory")
	}
	dir := fs.Arg(0)
	if st, err := os.Stat(dir); err != nil {
		return err
	} else if !st.IsDir() {
		return fmt.Errorf("%s is not a run directory", dir)
	}
	found, err := summarizeManifest(w, dir)
	if err != nil {
		return err
	}
	dumps, err := filepath.Glob(filepath.Join(dir, "postmortem", "*.json"))
	if err != nil {
		return err
	}
	if len(dumps) > 0 {
		if err := summarizePostmortems(w, dumps); err != nil {
			return err
		}
	}
	if !found && len(dumps) == 0 {
		fmt.Fprintf(w, "%s: no manifest.json and no postmortem/; nothing to summarize\n", dir)
	}
	return nil
}

// summarizeManifest prints dir/manifest.json's phase table and wire bytes
// by kind, and reports whether the manifest exists.
func summarizeManifest(w io.Writer, dir string) (bool, error) {
	path := filepath.Join(dir, "manifest.json")
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	var man experiments.Manifest
	if err := json.Unmarshal(data, &man); err != nil {
		return false, fmt.Errorf("%s: %w", path, err)
	}
	fmt.Fprintf(w, "%s: run %q, seed %d, created %s\n", path, man.Run, man.Seed, man.CreatedAt.Format("2006-01-02 15:04:05"))
	fmt.Fprintf(w, "%-16s  %9s  %9s  %12s\n", "PHASE", "START(s)", "DUR(s)", "LOSS")
	for _, ph := range man.Phases {
		loss := "--"
		if l, ok := ph.Attrs["loss"].(float64); ok {
			loss = fmt.Sprintf("%.6g", l)
		}
		fmt.Fprintf(w, "%-16s  %9.3f  %9.3f  %12s\n", ph.Name, ph.StartSec, ph.DurSec, loss)
	}
	kinds := make([]string, 0, len(man.WireBytesByKind))
	var total int64
	for k, v := range man.WireBytesByKind {
		kinds = append(kinds, k)
		total += v
	}
	sort.Strings(kinds)
	parts := make([]string, len(kinds))
	for i, k := range kinds {
		parts[i] = fmt.Sprintf("%s=%d", k, man.WireBytesByKind[k])
	}
	fmt.Fprintf(w, "wire bytes: %d (%s)\n", total, strings.Join(parts, " "))
	return true, nil
}

// summarizePostmortems prints one row per dump: the party, the cause that
// ended its run and the last span its flight recorder noted, which says the
// phase it finished before the failure.
func summarizePostmortems(w io.Writer, dumps []string) error {
	sort.Strings(dumps)
	fmt.Fprintf(w, "\npostmortems: %d\n%-8s  %-16s  %s\n", len(dumps), "PARTY", "LAST SPAN", "CAUSE")
	for _, path := range dumps {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var d obs.PostmortemDump
		if err := json.Unmarshal(data, &d); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		span := "--"
		for _, e := range d.Entries {
			if e.Op == "span" {
				span = e.Name
			}
		}
		fmt.Fprintf(w, "%-8s  %-16s  %s\n", d.Party, span, d.Cause)
	}
	return nil
}
