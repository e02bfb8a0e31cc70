package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunSummary pins what a run directory yields in the states a run can
// leave it in: a manifest (a finished run), postmortems without a manifest
// (a run a transport failure ended), and nothing at all.
func TestRunSummary(t *testing.T) {
	const (
		manifest = `{"run":"x","seed":7,"phases":[` +
			`{"name":"ae-train","start_sec":0,"dur_sec":1.5,"attrs":{"loss":0.25}},` +
			`{"name":"latent-ship","start_sec":1.5,"dur_sec":0.1}],` +
			`"wire_bytes_by_kind":{"latents":2048,"synth-req":16}}`
		c1 = `{"party":"c1","cause":"silo: peer dead","entries":[` +
			`{"seq":0,"op":"span","name":"ae-train"},{"seq":1,"op":"send","name":"latents"}]}`
		coord = `{"party":"coord","cause":"silo: peer dead","entries":[{"seq":0,"op":"train","name":"ae"}]}`
	)
	for _, tc := range []struct {
		name  string
		files map[string]string // path under the run dir -> content
		want  []string          // lines of the report, spaces collapsed
	}{
		{
			name:  "manifest",
			files: map[string]string{"manifest.json": manifest},
			want: []string{
				"ae-train 0.000 1.500 0.25",
				"latent-ship 1.500 0.100 --",
				"wire bytes: 2064 (latents=2048 synth-req=16)",
			},
		},
		{
			name:  "postmortems without a manifest",
			files: map[string]string{"postmortem/c1.json": c1, "postmortem/coord.json": coord},
			want: []string{
				"postmortems: 2",
				"c1 ae-train silo: peer dead",
				"coord -- silo: peer dead",
			},
		},
		{
			name:  "empty run directory",
			files: map[string]string{},
			want:  []string{"nothing to summarize"},
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
			var lines []string
			for _, l := range strings.Split(out.String(), "\n") {
				lines = append(lines, strings.Join(strings.Fields(l), " "))
			}
			report := strings.Join(lines, "\n")
			for _, w := range tc.want {
				if !strings.Contains(report, w) {
					t.Errorf("report lacks %q:\n%s", w, out.String())
				}
			}
		})
	}

	// A path that is not a run directory is an error.
	missing := filepath.Join(t.TempDir(), "nosuch")
	if err := runSummary(new(bytes.Buffer), []string{missing}); err == nil {
		t.Error("summary of a missing run directory succeeded")
	}
}
