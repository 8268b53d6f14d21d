// Package cliflags centralizes the shared command-line surface of the
// macroflow commands (experiments, rwflow, datasetgen, macroflowd):
// the observability pair -trace/-metrics, the persistent cache -cache,
// the search -strategy, the stitcher -stitch-backend/-stitch-chains,
// the oracle -check and the service-telemetry set
// -flight-recorder/-slo-ms/-flight-dir/-debug-addr all register through
// one helper, so spellings, defaults and parse errors cannot drift
// between binaries.
//
// Every Add helper takes an optional usage override: commands whose
// historic -help text carries extra context (e.g. experiments' -cache
// caveat about §VIII run counts) pass their exact string and keep their
// help output byte-identical; new commands pass "" for the canonical
// text.
package cliflags

import (
	"flag"
	"fmt"
	"io"
	"log"

	"macroflow"
	"macroflow/internal/obs"
)

// Canonical usage strings (the spelling new commands get for "").
const (
	traceUsage     = "write a Chrome trace_event JSON (or JSONL with a .jsonl extension) of the run to this file"
	metricsUsage   = "print the per-phase span/metric summary to stderr at exit"
	cacheUsage     = "persistent implementation cache directory: one record per block or label, shared by every run and tool pointed at it"
	strategyUsage  = "min-CF search strategy: linear (paper sweep) or bisect (same CFs, O(log) runs)"
	chainsUsage    = "parallel-tempering chains (0/1 = serial; results depend only on -seed and this value)"
	backendUsage   = "stitcher backend: anneal, analytic, or hybrid (analytic seed + annealing)"
	checkUsage     = "oracle cross-check level: off, sampled or full"
	partitionUsage = "carve the device into this many row shards and stitch each in parallel (0 = single-device)"
)

// Obs holds the -trace/-metrics observability flags.
type Obs struct {
	TracePath string
	Metrics   bool
}

// AddObs registers -trace and -metrics on fs. traceUsageOverride keeps
// a command's historic -trace help text; "" selects the canonical one.
func AddObs(fs *flag.FlagSet, traceUsageOverride string) *Obs {
	u := traceUsageOverride
	if u == "" {
		u = traceUsage
	}
	o := &Obs{}
	fs.StringVar(&o.TracePath, "trace", "", u)
	fs.BoolVar(&o.Metrics, "metrics", false, metricsUsage)
	return o
}

// Recorder allocates a recorder when either flag asked for one, and
// returns nil otherwise — a nil *Recorder disables all recording, so
// the default outputs stay byte-identical when neither flag is given.
func (o *Obs) Recorder() *macroflow.Recorder {
	if o.TracePath == "" && !o.Metrics {
		return nil
	}
	return macroflow.NewRecorder()
}

// Flush writes the trace file and/or the metrics summary the flags
// asked for — the shared tail every command runs before exiting. The
// "trace written" line goes through the standard logger, so it carries
// the command's own log prefix.
func (o *Obs) Flush(rec *macroflow.Recorder, metricsOut io.Writer) error {
	if o.TracePath != "" {
		if err := rec.WriteFile(o.TracePath); err != nil {
			return err
		}
		log.Printf("trace written to %s", o.TracePath)
	}
	if o.Metrics {
		return rec.WriteText(metricsOut)
	}
	return nil
}

// AddCache registers -cache (default "": no persistent layer) and
// returns the destination. usageOverride keeps a command's historic
// help text; "" selects the canonical one.
func AddCache(fs *flag.FlagSet, usageOverride string) *string {
	u := usageOverride
	if u == "" {
		u = cacheUsage
	}
	return fs.String("cache", "", u)
}

// Strategy holds the -strategy flag.
type Strategy struct {
	Name string
}

// AddStrategy registers -strategy (default "linear").
func AddStrategy(fs *flag.FlagSet) *Strategy {
	s := &Strategy{}
	fs.StringVar(&s.Name, "strategy", "linear", strategyUsage)
	return s
}

// Parse maps the spelling onto the search strategy, with the error
// message every command historically printed.
func (s *Strategy) Parse() (macroflow.SearchStrategy, error) {
	switch s.Name {
	case "linear":
		return macroflow.SearchLinear, nil
	case "bisect":
		return macroflow.SearchBisect, nil
	}
	return macroflow.SearchLinear, fmt.Errorf("unknown strategy %q (linear, bisect)", s.Name)
}

// Stitch holds the shared -stitch-* flag group: chains and backend
// selection.
type Stitch struct {
	Chains  int
	Backend string
}

// AddStitch registers -stitch-chains (default 0) and -stitch-backend
// (default "anneal"). chainsUsageOverride keeps a command's historic
// -stitch-chains help text; "" selects the canonical one.
func AddStitch(fs *flag.FlagSet, chainsUsageOverride string) *Stitch {
	u := chainsUsageOverride
	if u == "" {
		u = chainsUsage
	}
	s := &Stitch{}
	fs.IntVar(&s.Chains, "stitch-chains", 0, u)
	fs.StringVar(&s.Backend, "stitch-backend", "anneal", backendUsage)
	return s
}

// Apply maps the flag group onto the structured options. Validation
// stays with StitchOptions.Validate, so every command rejects bad
// spellings with the library's message.
func (s *Stitch) Apply(o *macroflow.StitchOptions) {
	o.Backend = s.Backend
	o.Anneal.Chains = s.Chains
}

// Partition holds the -partition flag: how many fabric shards to carve
// the device into.
type Partition struct {
	Shards int
}

// AddPartition registers -partition (default 0: single-device).
// usageOverride keeps a command's historic -partition help text; ""
// selects the canonical one.
func AddPartition(fs *flag.FlagSet, usageOverride string) *Partition {
	u := usageOverride
	if u == "" {
		u = partitionUsage
	}
	p := &Partition{}
	fs.IntVar(&p.Shards, "partition", 0, u)
	return p
}

// Apply maps the flag onto the library options. Validation stays with
// PartitionOptions.Validate.
func (p *Partition) Apply(o *macroflow.PartitionOptions) {
	o.Shards = p.Shards
}

// Telemetry holds the service-telemetry flags of long-running daemons:
// the flight recorder ring size, the per-job latency SLO that triggers
// anomaly trace dumps, the directory those dumps land in, and the
// optional pprof debug listener.
type Telemetry struct {
	// FlightSize is the flight recorder's span ring capacity; 0 disables
	// the ring (and with it anomaly dumps).
	FlightSize int
	// SLOMs is the per-job submit→finish latency objective in
	// milliseconds; a job exceeding it dumps the flight ring. 0 = none.
	SLOMs int64
	// FlightDir is where anomaly trace dumps are written.
	FlightDir string
	// DebugAddr is the net/http/pprof listen address ("" = off).
	DebugAddr string
}

// AddTelemetry registers -flight-recorder, -slo-ms, -flight-dir and
// -debug-addr on fs.
func AddTelemetry(fs *flag.FlagSet) *Telemetry {
	t := &Telemetry{}
	fs.IntVar(&t.FlightSize, "flight-recorder", obs.DefaultFlightSize,
		"flight recorder ring capacity in spans (0 disables the ring and anomaly dumps)")
	fs.Int64Var(&t.SLOMs, "slo-ms", 0,
		"per-job latency objective in ms; a breach (or an oracle violation) dumps the flight recorder (0 = off)")
	fs.StringVar(&t.FlightDir, "flight-dir", ".",
		"directory for anomaly-triggered flight recorder trace dumps")
	fs.StringVar(&t.DebugAddr, "debug-addr", "",
		"net/http/pprof debug listen address (empty = off)")
	return t
}

// Check holds the -check flag.
type Check struct {
	Name string
}

// AddCheck registers -check (default "off"). usageOverride keeps a
// command's historic help text; "" selects the canonical one.
func AddCheck(fs *flag.FlagSet, usageOverride string) *Check {
	u := usageOverride
	if u == "" {
		u = checkUsage
	}
	c := &Check{}
	fs.StringVar(&c.Name, "check", "off", u)
	return c
}

// Parse maps the spelling onto the check level via the library's own
// parser, so CLI and HTTP reject bad levels with the same message.
func (c *Check) Parse() (macroflow.CheckLevel, error) {
	return macroflow.ParseCheckLevel(c.Name)
}
