package main

import (
	"strings"
	"testing"
)

// TestResolveExperiments pins the -exp contract: "all" expands to the
// table's inAll entries in table order, a list keeps the caller's order,
// and one unknown id anywhere in the list fails the whole list — before any
// experiment runs — with the valid ids in the message.
func TestResolveExperiments(t *testing.T) {
	for _, tc := range []struct {
		spec    string
		want    string // comma-joined resolved ids
		wantErr string // substring of the error; "" means success
	}{
		{spec: "all", want: "table2,table3,table4,table5,table6,table7,fig10,fig10x,fig11"},
		{spec: "fig10,fig10x", want: "fig10,fig10x"},
		{spec: "fig11,table3,table4", want: "fig11,table3,table4"},
		{spec: "ablations", want: "ablations"},
		{spec: "table2,table3,nosuch", wantErr: `unknown experiment "nosuch"`},
		{spec: "quality", wantErr: `unknown experiment "quality"`},
		{spec: "nosuch,table2", wantErr: `unknown experiment "nosuch"`},
		{spec: "fig10,all", wantErr: `unknown experiment "all"`},
		{spec: "fig10,", wantErr: `unknown experiment ""`},
		{spec: "", wantErr: `unknown experiment ""`},
	} {
		exps, err := resolveExperiments(tc.spec)
		if tc.wantErr != "" {
			if err == nil {
				t.Errorf("-exp %q: resolved, want error containing %q", tc.spec, tc.wantErr)
				continue
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("-exp %q: error %q, want it to contain %q", tc.spec, err, tc.wantErr)
			}
			for _, e := range experimentTable {
				if !strings.Contains(err.Error(), e.id) {
					t.Errorf("-exp %q: error %q does not list valid id %q", tc.spec, err, e.id)
				}
			}
			continue
		}
		if err != nil {
			t.Errorf("-exp %q: %v", tc.spec, err)
			continue
		}
		ids := make([]string, len(exps))
		for i, e := range exps {
			ids[i] = e.id
		}
		if got := strings.Join(ids, ","); got != tc.want {
			t.Errorf("-exp %q resolved to %q, want %q", tc.spec, got, tc.want)
		}
	}
}

// TestExperimentTableWellFormed checks what resolveExperiments and main
// assume of the table: ids are unique and every entry either projects the
// cell set or runs on its own, never both.
func TestExperimentTableWellFormed(t *testing.T) {
	seen := make(map[string]bool)
	for _, e := range experimentTable {
		if seen[e.id] {
			t.Errorf("experiment id %q appears twice in the table", e.id)
		}
		seen[e.id] = true
		if (e.run == nil) == (e.cells == nil) {
			t.Errorf("experiment %q must have exactly one of run and cells", e.id)
		}
	}
}
