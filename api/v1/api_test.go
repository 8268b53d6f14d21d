package apiv1

import (
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"macroflow"
)

func fullRequest() *CompileRequest {
	return &CompileRequest{
		Device: "xc7z045",
		Design: DesignSpec{
			Blocks: []BlockSpec{
				{Name: "b0", Components: []ComponentSpec{
					{Kind: CompShiftRegs, Count: 4, Length: 8, ControlSets: 2, Fanin: 4},
					{Kind: CompLogic, LUTs: 64, Fanin: 4, Depth: 2},
				}},
				{Name: "b1", Components: []ComponentSpec{
					{Kind: CompMemory, Width: 16, Depth: 512},
				}},
			},
			Instances: []InstanceSpec{
				{Name: "b0_0", Block: 0},
				{Name: "b0_1", Block: 0},
				{Name: "b1_0", Block: 1},
			},
			Nets: []NetSpec{{From: 0, To: 2, Width: 8}},
		},
		Mode:   ModeSpec{Kind: "constant", CF: 1.5},
		Search: &SearchWindow{Start: 0.9, Step: 0.02, Max: 2.5},
		Stitch: StitchParams{Seed: 7, TraceEvery: 128, Backend: "hybrid", Check: "sampled",
			Anneal:   &AnnealParams{Chains: 2, Iterations: 9000},
			Analytic: &AnalyticParams{GDIterations: 64}},
		Implement: ImplementParams{Workers: 2, Strategy: "bisect", Check: "off"},
		Priority:  3,
	}
}

// TestRequestRoundTrip: encode → strict decode must reproduce the
// request exactly, through every nested field.
func TestRequestRoundTrip(t *testing.T) {
	want := fullRequest()
	data, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRequest(strings.NewReader(string(data)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip diverged:\n got %+v\nwant %+v", got, want)
	}
}

// TestDecodeRequestRejectsUnknownFields: a typo'd option must fail
// loudly with the typed bad_request error, not silently compile with
// defaults — at top level and inside nested objects alike. The fields
// of the removed solvers (stitch.evo, stitch.portfolio,
// partition.backend) are unknown fields now: a stale client that still
// sends one, spelled exactly as v1 used to accept it, gets bad_request.
func TestDecodeRequestRejectsUnknownFields(t *testing.T) {
	cases := []struct {
		name string
		body string
	}{
		{"top-level", `{"design":{"builtin":"cnvW1A1"},"iteratons":5}`},
		{"nested-stitch", `{"design":{"builtin":"cnvW1A1"},"stitch":{"sede":7}}`},
		{"nested-component", `{"design":{"blocks":[{"name":"b","components":[{"kind":"logic","lust":4}]}]}}`},
		{"nested-anneal", `{"design":{"builtin":"cnvW1A1"},"stitch":{"anneal":{"chians":2}}}`},
		{"nested-evo", `{"design":{"builtin":"cnvW1A1"},"stitch":{"backend":"evo","evo":{"mu":2,"lambda":8,"generations":10}}}`},
		{"nested-portfolio", `{"design":{"builtin":"cnvW1A1"},"stitch":{"portfolio":{"backends":["anneal","hybrid"],"threshold":4000}}}`},
		{"partition-backend", `{"design":{"builtin":"cnvW1A1"},"partition":{"shards":2,"backend":"greedy"}}`},
		{"trailing-data", `{"design":{"builtin":"cnvW1A1"}} {"design":{"builtin":"cnvW1A1"}}`},
		{"malformed", `{"design":`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeRequest(strings.NewReader(tc.body))
			if err == nil {
				t.Fatal("decode accepted a bad body")
			}
			var ae *Error
			if !errors.As(err, &ae) || ae.Code != ErrBadRequest {
				t.Errorf("error = %v, want *Error with code %q", err, ErrBadRequest)
			}
		})
	}
	// The happy path still decodes.
	if _, err := DecodeRequest(strings.NewReader(`{"design":{"builtin":"cnvW1A1"}}`)); err != nil {
		t.Errorf("valid body rejected: %v", err)
	}
}

// TestRequestValidate covers the wire-level invariants.
func TestRequestValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*CompileRequest)
		ok     bool
	}{
		{"valid", func(r *CompileRequest) {}, true},
		{"builtin", func(r *CompileRequest) { r.Design = DesignSpec{Builtin: BuiltinCNVW1A1} }, true},
		{"bad-device", func(r *CompileRequest) { r.Device = "xc9k" }, false},
		{"bad-builtin", func(r *CompileRequest) { r.Design = DesignSpec{Builtin: "alexnet"} }, false},
		{"builtin-plus-blocks", func(r *CompileRequest) { r.Design.Builtin = BuiltinCNVW1A1 }, false},
		{"no-blocks", func(r *CompileRequest) { r.Design.Blocks = nil }, false},
		{"no-instances", func(r *CompileRequest) { r.Design.Instances = nil }, false},
		{"bad-component-kind", func(r *CompileRequest) { r.Design.Blocks[0].Components[0].Kind = "flipflops" }, false},
		{"instance-out-of-range", func(r *CompileRequest) { r.Design.Instances[0].Block = 9 }, false},
		{"net-out-of-range", func(r *CompileRequest) { r.Design.Nets[0].To = 99 }, false},
		{"bad-mode", func(r *CompileRequest) { r.Mode.Kind = "oracle" }, false},
		{"constant-without-cf", func(r *CompileRequest) { r.Mode = ModeSpec{Kind: "constant"} }, false},
		{"bad-search-window", func(r *CompileRequest) { r.Search = &SearchWindow{Start: 2, Step: 0.02, Max: 1} }, false},
		// A step off the 0.02 CF grid re-probes every grid CF: 1e-9 would
		// pin a daemon worker for ~2e9 probes.
		{"off-grid-step", func(r *CompileRequest) { r.Search = &SearchWindow{Start: 0.9, Step: 0.001, Max: 3} }, false},
		{"zero-step", func(r *CompileRequest) { r.Search = &SearchWindow{Start: 0.9, Max: 3} }, false},
		{"tiny-step", func(r *CompileRequest) { r.Search = &SearchWindow{Start: 0.9, Step: 1e-9, Max: 3} }, false},
		{"between-grid-step", func(r *CompileRequest) { r.Search = &SearchWindow{Start: 0.9, Step: 0.03, Max: 3} }, false},
		{"coarse-step", func(r *CompileRequest) { r.Search = &SearchWindow{Start: 0.9, Step: 0.1, Max: 3} }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := fullRequest()
			tc.mutate(req)
			err := req.Validate()
			if (err == nil) != tc.ok {
				t.Errorf("Validate() = %v, want ok=%v", err, tc.ok)
			}
			if err != nil {
				var ae *Error
				if !errors.As(err, &ae) {
					t.Errorf("validation error is %T, want *Error", err)
				}
			}
		})
	}
}

// TestParamsOptions: the wire params must map onto the structured
// options field for field, and reject the library's own invalid values
// through the same Validate() messages.
func TestParamsOptions(t *testing.T) {
	so, err := fullRequest().Stitch.Options()
	if err != nil {
		t.Fatal(err)
	}
	want := macroflow.StitchOptions{Seed: 7,
		TraceEvery: 128, Backend: "hybrid", Check: macroflow.CheckSampled,
		Anneal:   macroflow.AnnealOptions{Chains: 2, Iterations: 9000},
		Analytic: macroflow.AnalyticOptions{GDIterations: 64}}
	if !reflect.DeepEqual(so, want) {
		t.Errorf("StitchParams.Options() = %+v, want %+v", so, want)
	}
	if err := so.Validate(); err != nil {
		t.Errorf("converted options failed the library's Validate: %v", err)
	}
	if _, err := (StitchParams{Check: "everything"}).Options(); err == nil {
		t.Error("bad check level accepted")
	}

	im, err := fullRequest().Implement.Options()
	if err != nil {
		t.Fatal(err)
	}
	if im.Workers != 2 || im.Strategy != macroflow.SearchForceBisect {
		t.Errorf("ImplementParams.Options() = %+v", im)
	}
	for spelling, want := range map[string]macroflow.SearchChoice{
		"": macroflow.SearchFlowDefault, "default": macroflow.SearchFlowDefault,
		"linear": macroflow.SearchForceLinear, "bisect": macroflow.SearchForceBisect,
	} {
		im, err := (ImplementParams{Strategy: spelling}).Options()
		if err != nil {
			t.Fatalf("strategy %q: %v", spelling, err)
		}
		if im.Strategy != want {
			t.Errorf("strategy %q = %v, want %v", spelling, im.Strategy, want)
		}
	}
	if _, err := (ImplementParams{Strategy: "quantum"}).Options(); err == nil {
		t.Error("bad strategy accepted")
	}
}

// TestStitchSummaryRoundTrip: a stitch report must survive a JSON round
// trip under its wire name, chains and traces included, and a report
// without them must not grow empty objects.
func TestStitchSummaryRoundTrip(t *testing.T) {
	trace := []CostPoint{{Iter: 256, Cost: 500}, {Iter: 512, Cost: 123.5}}
	sum := &StitchSummary{
		Backend: "hybrid", GDIters: 64, Placed: 10, Unplaced: 1, FinalCost: 123.5,
		ConvergenceIter: 256, IllegalMoves: 7, Iterations: 190, Exchanges: 3,
		FreeTiles: 40, LargestFreeRect: 12, TraceEvery: 256, Map: "..A.\n", Trace: trace,
		Chains: []ChainReport{
			{Chain: 0, InitTemp: 1.5, Moves: 100, Accepts: 30, IllegalMoves: 4, Exchanges: 3, FinalCost: 123.5, Trace: trace},
			{Chain: 1, InitTemp: 4.5, Moves: 90, Accepts: 60, IllegalMoves: 3, FinalCost: 200},
		},
	}
	data, err := json.Marshal(sum)
	if err != nil {
		t.Fatal(err)
	}
	var got StitchSummary
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&got, sum) {
		t.Errorf("summary round trip diverged:\n got %+v\nwant %+v", &got, sum)
	}
	bare, err := json.Marshal(&StitchSummary{Backend: "anneal"})
	if err != nil {
		t.Fatal(err)
	}
	for _, absent := range []string{"gdIters", "exchanges", "map", "trace", "chains", "portfolio"} {
		if strings.Contains(string(bare), `"`+absent+`"`) {
			t.Errorf("bare summary carries %q: %s", absent, bare)
		}
	}
}

// TestWireRecordsFullyTagged: every record the wire shares with the
// library (the aliases in api.go) spells each exported field with an
// explicit json tag, recursively — so a field added to a library type
// cannot reach the wire under its Go name by accident; it fails here
// until someone decides its wire name (or `json:"-"`).
func TestWireRecordsFullyTagged(t *testing.T) {
	seen := map[reflect.Type]bool{}
	var walk func(reflect.Type)
	walk = func(rt reflect.Type) {
		for rt.Kind() == reflect.Pointer || rt.Kind() == reflect.Slice {
			rt = rt.Elem()
		}
		if rt.Kind() != reflect.Struct || seen[rt] {
			return
		}
		seen[rt] = true
		for i := 0; i < rt.NumField(); i++ {
			f := rt.Field(i)
			if !f.IsExported() {
				continue
			}
			name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			if name == "" {
				t.Errorf("%s.%s has no json name", rt, f.Name)
			}
			walk(f.Type)
		}
	}
	// A result reaches every result record; a request the two option
	// sub-objects.
	walk(reflect.TypeOf(CompileResult{}))
	walk(reflect.TypeOf(CompileRequest{}))
	for _, rec := range []any{
		StitchSummary{}, ChainReport{}, CostPoint{}, BlockResult{}, CacheStats{}, PartitionSummary{},
		MemberSummary{}, VerifySummary{}, Violation{}, AnnealParams{}, AnalyticParams{},
	} {
		if !seen[reflect.TypeOf(rec)] {
			t.Errorf("%T is not reachable from a request or a result", rec)
		}
	}
}

// TestBuildDesign: the wire design must build a macroflow.Design with
// the right shape, and InstanceCounts must tally per block type.
func TestBuildDesign(t *testing.T) {
	req := fullRequest()
	d, err := req.Design.BuildDesign()
	if err != nil {
		t.Fatal(err)
	}
	if d.NumTypes() != 2 || d.NumInstances() != 3 {
		t.Errorf("built design has %d types / %d instances, want 2 / 3", d.NumTypes(), d.NumInstances())
	}
	if got := req.Design.InstanceCounts(); !reflect.DeepEqual(got, []int{2, 1}) {
		t.Errorf("InstanceCounts() = %v, want [2 1]", got)
	}
	if (&DesignSpec{Builtin: BuiltinCNVW1A1}).InstanceCounts() != nil {
		t.Error("builtin designs must report nil instance counts")
	}
	if _, err := (&DesignSpec{Builtin: BuiltinCNVW1A1}).BuildDesign(); err == nil {
		t.Error("builtin designs must not build client-side")
	}
}

// TestErrorEnvelopeShape: the typed error must round-trip through its
// envelope and render a stable message.
func TestErrorEnvelopeShape(t *testing.T) {
	e := &Error{Code: ErrQueueFull, Message: "compile queue is full (64 jobs)"}
	data, _ := json.Marshal(ErrorEnvelope{Error: e})
	var env ErrorEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(env.Error, e) {
		t.Errorf("envelope round trip = %+v, want %+v", env.Error, e)
	}
	if got, want := e.Error(), "macroflowd: queue_full: compile queue is full (64 jobs)"; got != want {
		t.Errorf("Error() = %q, want %q", got, want)
	}
}
