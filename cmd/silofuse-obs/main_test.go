package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunSummary pins what a run directory yields in the states a run can
// leave it in: a complete event stream, a stream a crash cut mid-line (all
// whole lines still count), and no stream at all (the manifest and the
// postmortems are reported instead of an error).
func TestRunSummary(t *testing.T) {
	const (
		events = `{"type":"run-start","run":"x"}` + "\n" +
			`{"type":"train","stage":"ae","step":50}` + "\n" +
			`{"type":"phase","name":"ae-train","start_sec":0,"dur_sec":1.5,"attrs":{"loss":0.25},"bus_bytes_by_kind":{"latents":2048}}` + "\n"
		manifest = `{"run":"x","seed":7,"phases":[{"name":"ae-train","start_sec":0,"dur_sec":1.5}]}`
	)
	for _, tc := range []struct {
		name    string
		files   map[string]string // path under the run dir -> content
		want    []string          // substrings of the report
		wantNot []string
	}{
		{
			name:  "whole stream",
			files: map[string]string{"events.jsonl": events},
			want:  []string{"3 events", "phase    1", "train    1", "ae-train", "0.25", "2048 (latents=2048)"},
		},
		{
			name:  "crash-truncated stream parses up to the last whole line",
			files: map[string]string{"events.jsonl": events + `{"type":"phase","name":"diffusion-tr`},
			want:  []string{"3 events", "ae-train"},
			// the fragment is dropped, not reported
			wantNot: []string{"diffusion-tr"},
		},
		{
			name:  "stream without phases",
			files: map[string]string{"events.jsonl": `{"type":"run-start"}` + "\n"},
			want:  []string{"1 events", "no phase events"},
		},
		{
			name: "manifest and postmortems but no stream",
			files: map[string]string{
				"manifest.json":         manifest,
				"postmortem/c1.json":    `{"cause":"peer dead"}`,
				"postmortem/coord.json": `{"cause":"peer dead"}`,
			},
			want: []string{"no events.jsonl", `run "x", seed 7`, "ae-train", "postmortem dumps: 2", "c1.json", "coord.json"},
		},
		{
			name:  "empty run directory",
			files: map[string]string{},
			want:  []string{"no events.jsonl", "empty run directory"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			for rel, content := range tc.files {
				path := filepath.Join(dir, rel)
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			var out bytes.Buffer
			if err := runSummary(&out, []string{dir}); err != nil {
				t.Fatal(err)
			}
			for _, w := range tc.want {
				if !strings.Contains(out.String(), w) {
					t.Errorf("report lacks %q:\n%s", w, out.String())
				}
			}
			for _, w := range tc.wantNot {
				if strings.Contains(out.String(), w) {
					t.Errorf("report contains %q:\n%s", w, out.String())
				}
			}
		})
	}

	// A missing file named directly is an error; only a directory degrades.
	if err := runSummary(new(bytes.Buffer), []string{filepath.Join(t.TempDir(), "nosuch.jsonl")}); err == nil {
		t.Error("summary of a missing events file succeeded")
	}
}
