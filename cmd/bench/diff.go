package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// Verdicts of `bench diff`, one per (workload, metric).
const (
	vUnchanged  = "unchanged"
	vImproved   = "improved"
	vRegression = "REGRESSION"
	// vUnresolved: the two sides' own spread exceeds the bound, so the
	// files cannot show whether the metric moved.
	vUnresolved = "unresolved"
	vChanged    = "changed" // an unbounded layer metric that moved
	vMissing    = "missing"
)

type diffRow struct {
	Layer                  bool // a per-layer metric
	Workload, Metric, Unit string
	A, B                   float64
	Change                 float64 // relative, > 0 is worse
	Verdict                string
}

// worse returns how much b is worse than a, as a share of a.
func worse(def metricDef, a, b float64) float64 {
	if a == 0 {
		if b == a {
			return 0
		}
		return math.Inf(1)
	}
	if def.Better == "higher" {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}

// allBetter reports whether every round of b reads better than every
// round of a — the one case in which a wide spread still resolves.
func allBetter(def metricDef, a, b metric) bool {
	if len(a.Rounds) == 0 || len(b.Rounds) == 0 {
		return false
	}
	sa, sb := append([]float64(nil), a.Rounds...), append([]float64(nil), b.Rounds...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	if def.Better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

// judge applies one metric's gate: exact for deterministic metrics,
// the catalogue's bound for timed end-to-end metrics, and no gate
// (report only) for unbounded layer metrics.
func judge(def metricDef, a, b metric) (change float64, verdict string) {
	change = worse(def, a.Value, b.Value)
	switch {
	case def.Exact:
		switch {
		case a.Value == b.Value:
			return 0, vUnchanged
		case change > 0:
			return change, vRegression
		}
		return change, vImproved
	case def.Bound == 0:
		if math.Abs(change) > 0.05 {
			return change, vChanged
		}
		return change, vUnchanged
	}
	noise := math.Max(spread(a.Rounds), spread(b.Rounds))
	switch {
	case noise > def.Bound && !allBetter(def, a, b):
		return change, vUnresolved
	case change > def.Bound:
		return change, vRegression
	case change < -def.Bound:
		return change, vImproved
	}
	return change, vUnchanged
}

// diffResults gates b against a, metric by metric and workload by
// workload.
func diffResults(a, b *results) []diffRow {
	var rows []diffRow
	for _, wa := range a.Workloads {
		var wb *workloadResult
		for i := range b.Workloads {
			if b.Workloads[i].Name == wa.Name {
				wb = &b.Workloads[i]
			}
		}
		if wb == nil {
			rows = append(rows, diffRow{Workload: wa.Name, Metric: "*", Verdict: vMissing})
			continue
		}
		for _, def := range endToEnd {
			ma, mb := wa.EndToEnd[def.Name], wb.EndToEnd[def.Name]
			ch, v := judge(def, ma, mb)
			rows = append(rows, diffRow{false, wa.Name, def.Name, def.Unit, ma.Value, mb.Value, ch, v})
		}
		for _, def := range perLayer {
			ma, okA := wa.PerLayer[def.Name]
			mb, okB := wb.PerLayer[def.Name]
			switch {
			case !okA && !okB:
				continue
			case okA != okB:
				// A backend one side no longer has is absent, not failed.
				rows = append(rows, diffRow{true, wa.Name, printName(wa.Name, def.Name), def.Unit, ma.Value, mb.Value, 0, vMissing})
				continue
			}
			ch, v := judge(def, ma, mb)
			rows = append(rows, diffRow{true, wa.Name, printName(wa.Name, def.Name), def.Unit, ma.Value, mb.Value, ch, v})
		}
	}
	return rows
}

func regressions(rows []diffRow) int {
	n := 0
	for _, r := range rows {
		if r.Verdict == vRegression {
			n++
		}
	}
	return n
}

// printDiff prints every row whose verdict is not "unchanged".
func printDiff(w io.Writer, rows []diffRow) {
	for _, r := range rows {
		if r.Verdict == vUnchanged {
			continue
		}
		fmt.Fprintf(w, "%-13s %-38s %14.6g -> %-14.6g %-6s %+7.1f%%  %s\n",
			r.Workload, r.Metric, r.A, r.B, r.Unit, 100*r.Change, r.Verdict)
	}
}

func readResults(path string) (*results, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func cmdDiff(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: bench diff A.json B.json")
	}
	a, err := readResults(args[0])
	if err != nil {
		return err
	}
	b, err := readResults(args[1])
	if err != nil {
		return err
	}
	rows := diffResults(a, b)
	printDiff(os.Stdout, rows)
	if n := regressions(rows); n > 0 {
		return fmt.Errorf("%d regressions (worse is positive; %% of %s)", n, args[0])
	}
	fmt.Println("no regression")
	return nil
}

// cmdSelfcheck runs two full sets on the same build and diffs them:
// the deterministic metrics must be bit-equal and no timed metric may
// move by more than its bound. It prints each timed metric's measured
// set-to-set spread, the table README.md records, and leaves the two
// results files in cmd/bench/out/.
func cmdSelfcheck(args []string) error {
	fs := flag.NewFlagSet("bench selfcheck", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "seed every input derives from")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sets, err := runSets(*seed, false, 2)
	if err != nil {
		return err
	}
	root, err := repoRoot()
	if err != nil {
		return err
	}
	for i := range sets {
		if err := writeJSON(filepath.Join(root, "cmd", "bench", "out", fmt.Sprintf("selfcheck-%c.json", 'a'+i)), sets[i]); err != nil {
			return err
		}
	}
	rows := diffResults(sets[0], sets[1])
	fmt.Println("set-to-set spread of the end-to-end metrics, |a-b| / min(a,b):")
	bad := 0
	for _, r := range rows {
		if r.Layer {
			if r.Verdict != vUnchanged && isExactLayer(r.Metric) {
				fmt.Printf("  %-13s %-38s %v != %v: not deterministic\n", r.Workload, r.Metric, r.A, r.B)
				bad++
			}
			continue
		}
		def, _ := defByName(endToEnd, r.Metric)
		gap := 0.0
		if lo := math.Min(r.A, r.B); lo > 0 {
			gap = math.Abs(r.A-r.B) / lo
		}
		note := ""
		switch {
		case def.Exact && r.A != r.B:
			note, bad = "not deterministic", bad+1
		case !def.Exact && gap > def.Bound:
			note, bad = fmt.Sprintf("exceeds the %.0f%% bound: lengthen the workload", 100*def.Bound), bad+1
		}
		fmt.Printf("  %-13s %-20s %12.6g %12.6g  %5.1f%%  %s\n", r.Workload, r.Metric, r.A, r.B, 100*gap, note)
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d metrics disagree between two sets of the same build", bad)
	}
	fmt.Println("selfcheck passed")
	return nil
}
