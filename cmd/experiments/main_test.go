package main

import (
	"reflect"
	"strings"
	"testing"
)

// TestSelectExperiments: -exp takes known names and all, in any comma
// list; a list with an unknown name is rejected whole, naming every
// unknown entry beside the known ones, so a typo never runs the rest.
func TestSelectExperiments(t *testing.T) {
	for _, tc := range []struct {
		spec    string
		want    []string
		unknown string
	}{
		{spec: "all", want: []string{"all"}},
		{spec: "table2", want: []string{"table2"}},
		{spec: "table2, fig9", want: []string{"table2", "fig9"}},
		{spec: "fig99", unknown: `"fig99"`},
		{spec: "table2,fig99", unknown: `"fig99"`},
		{spec: "fig99,table2,tabel1", unknown: `"fig99,tabel1"`},
		{spec: "", unknown: `""`},
	} {
		got, err := selectExperiments(tc.spec)
		if tc.unknown != "" {
			if err == nil {
				t.Errorf("%q: accepted as %v", tc.spec, got)
				continue
			}
			msg := err.Error()
			if !strings.HasPrefix(msg, "unknown experiment "+tc.unknown+"; known: table1 table2 ") {
				t.Errorf("%q: error %q, want it to name %s and list the known experiments", tc.spec, msg, tc.unknown)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: %v", tc.spec, err)
			continue
		}
		want := map[string]bool{}
		for _, name := range tc.want {
			want[name] = true
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%q: selected %v, want %v", tc.spec, got, want)
		}
	}
}
