package cliflags

import (
	"flag"
	"io"
	"strings"
	"testing"

	"macroflow"
)

// TestFlagNamesAndDefaults: the shared registration must keep every
// historic spelling and default — a drift here silently changes every
// command at once.
func TestFlagNamesAndDefaults(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	AddObs(fs, "")
	AddCache(fs, "")
	AddStrategy(fs)
	AddStitch(fs, "")
	AddPartition(fs, "")
	AddCheck(fs, "")

	want := map[string]string{
		"trace":          "",
		"metrics":        "false",
		"cache":          "",
		"strategy":       "linear",
		"stitch-chains":  "0",
		"stitch-backend": "anneal",
		"partition":      "0",
		"check":          "off",
	}
	got := map[string]string{}
	fs.VisitAll(func(f *flag.Flag) { got[f.Name] = f.DefValue })
	for name, def := range want {
		if g, ok := got[name]; !ok {
			t.Errorf("flag -%s not registered", name)
		} else if g != def {
			t.Errorf("flag -%s default = %q, want %q", name, g, def)
		}
	}
	if len(got) != len(want) {
		t.Errorf("registered %d flags, want %d: %v", len(got), len(want), got)
	}
}

// TestUsageOverride: "" selects the canonical text; a non-empty
// override replaces only the one flag it targets.
func TestUsageOverride(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	AddStitch(fs, "my historic chains text")
	if u := fs.Lookup("stitch-chains").Usage; u != "my historic chains text" {
		t.Errorf("-stitch-chains usage = %q", u)
	}
	if u := fs.Lookup("stitch-backend").Usage; u != backendUsage {
		t.Errorf("-stitch-backend usage not canonical: %q", u)
	}
	fs2 := flag.NewFlagSet("t2", flag.ContinueOnError)
	AddStitch(fs2, "")
	if u := fs2.Lookup("stitch-chains").Usage; u != chainsUsage {
		t.Errorf("canonical -stitch-chains usage = %q", u)
	}
}

// TestObsRecorder: no flag → nil recorder (recording fully disabled, so
// default outputs stay byte-identical); either flag → a live recorder.
func TestObsRecorder(t *testing.T) {
	if rec := (&Obs{}).Recorder(); rec != nil {
		t.Error("flagless Obs allocated a recorder")
	}
	if rec := (&Obs{TracePath: "x.json"}).Recorder(); rec == nil {
		t.Error("-trace did not allocate a recorder")
	}
	if rec := (&Obs{Metrics: true}).Recorder(); rec == nil {
		t.Error("-metrics did not allocate a recorder")
	}
	// The flagless tail is a no-op that cannot fail.
	if err := (&Obs{}).Flush(nil, io.Discard); err != nil {
		t.Errorf("flagless Flush = %v", err)
	}
}

// TestStrategyParse: both spellings map onto the library enum; anything
// else fails with the historic message.
func TestStrategyParse(t *testing.T) {
	for name, want := range map[string]macroflow.SearchStrategy{
		"linear": macroflow.SearchLinear,
		"bisect": macroflow.SearchBisect,
	} {
		got, err := (&Strategy{Name: name}).Parse()
		if err != nil || got != want {
			t.Errorf("strategy %q = %v, %v; want %v", name, got, err, want)
		}
	}
	_, err := (&Strategy{Name: "annealed"}).Parse()
	if err == nil || !strings.Contains(err.Error(), `unknown strategy "annealed" (linear, bisect)`) {
		t.Errorf("bad strategy error = %v", err)
	}
}

// TestStitchApply: the flag group maps onto the structured options —
// backend and chains — and the result passes the library's validation.
func TestStitchApply(t *testing.T) {
	var o macroflow.StitchOptions
	(&Stitch{Chains: 4, Backend: "hybrid"}).Apply(&o)
	if o.Backend != "hybrid" || o.Anneal.Chains != 4 {
		t.Errorf("backend/chains = %q/%d", o.Backend, o.Anneal.Chains)
	}
	if err := o.Validate(); err != nil {
		t.Errorf("applied options failed validation: %v", err)
	}
	var po macroflow.PartitionOptions
	(&Partition{Shards: 3}).Apply(&po)
	if po.Shards != 3 {
		t.Errorf("shards = %d, want 3", po.Shards)
	}
}

// TestRemovedFlagsFailLoudly: the flags of the deleted solvers are not
// registered any more, so a stale command line (rwflow and experiments
// register exactly this group) stops with the flag package's own "not
// defined" error instead of running with a parameter silently dropped;
// and a removed backend named through a flag that still exists is
// rejected by the library with the message the daemon sends too.
func TestRemovedFlagsFailLoudly(t *testing.T) {
	for _, args := range [][]string{
		{"-stitch-evo-mu", "4"},
		{"-stitch-evo-lambda", "8"},
		{"-stitch-evo-generations", "16"},
		{"-stitch-portfolio", "anneal,hybrid"},
		{"-partition-backend", "evo"},
	} {
		fs := flag.NewFlagSet("rwflow", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		AddStitch(fs, "")
		AddPartition(fs, "")
		err := fs.Parse(args)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: "+args[0]) {
			t.Errorf("%v: err = %v, want flag provided but not defined", args, err)
		}
	}
	for _, be := range []string{"evo", "portfolio"} {
		fs := flag.NewFlagSet("rwflow", flag.ContinueOnError)
		st := AddStitch(fs, "")
		if err := fs.Parse([]string{"-stitch-backend", be}); err != nil {
			t.Fatal(err)
		}
		var o macroflow.StitchOptions
		st.Apply(&o)
		err := o.Validate()
		if err == nil || !strings.Contains(err.Error(), "want anneal, analytic or hybrid") {
			t.Errorf("-stitch-backend %s: Validate() = %v, want the list anneal, analytic or hybrid", be, err)
		}
	}
}

// TestCheckParse delegates to the library parser, so the CLI and the
// daemon reject bad levels with one message.
func TestCheckParse(t *testing.T) {
	for name, want := range map[string]macroflow.CheckLevel{
		"off": macroflow.CheckOff, "sampled": macroflow.CheckSampled, "full": macroflow.CheckFull,
	} {
		got, err := (&Check{Name: name}).Parse()
		if err != nil || got != want {
			t.Errorf("check %q = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := (&Check{Name: "everything"}).Parse(); err == nil {
		t.Error("bad check level accepted")
	}
}
