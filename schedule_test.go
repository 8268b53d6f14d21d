package macroflow

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"macroflow/internal/cnv"
)

// TestLaneOrderLargestFirst: the workers start cnvW1A1's longest block
// first, and the order is a function of the design alone — the same on
// one core and on four, largest first, ties in declaration order.
func TestLaneOrderLargestFirst(t *testing.T) {
	d := cnvDesign(cnv.CNVW1A1())
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	order := d.implementOrder()
	runtime.GOMAXPROCS(4)
	if again := d.implementOrder(); !reflect.DeepEqual(order, again) {
		t.Fatalf("order differs between GOMAXPROCS 1 and 4:\n%v\n%v", order, again)
	}
	if got := d.names[order[0]]; got != "weights_14" {
		t.Errorf("first block started is %s, want weights_14", got)
	}
	seen := make([]bool, len(d.types))
	for _, ti := range order {
		seen[ti] = true
	}
	for ti, ok := range seen {
		if !ok {
			t.Errorf("block %s is never started", d.names[ti])
		}
	}

	tie := NewDesign()
	for _, name := range []string{"small", "big_a", "big_b", "big_c", "mid"} {
		s := NewSpec(name)
		switch name {
		case "small":
			s.ShiftRegs(2, 4, 1, 2)
		case "mid":
			s.ShiftRegs(8, 8, 2, 4)
		default:
			s.ShiftRegs(16, 8, 2, 4)
		}
		tie.AddBlockType(s)
	}
	if got, want := tie.implementOrder(), []int{1, 2, 3, 4, 0}; !reflect.DeepEqual(got, want) {
		t.Errorf("order under ties = %v, want %v", got, want)
	}
}

// scheduleDesign is eight block types of very different sizes, two of
// them (twin_a, twin_b) the same netlist under two names: with a shared
// cache and two workers, whoever pulls the second twin waits on the
// first's singleflight slot.
func scheduleDesign(t *testing.T) *Design {
	t.Helper()
	d := NewDesign()
	types := []int{
		d.AddBlockType(NewSpec("tiny").ShiftRegs(2, 4, 1, 2)),
		d.AddBlockType(NewSpec("twin_a").ShiftRegs(24, 16, 3, 4).SumOfSquares(8, 3)),
		d.AddBlockType(NewSpec("logic").Logic(300, 4, 3)),
		d.AddBlockType(NewSpec("twin_b").ShiftRegs(24, 16, 3, 4).SumOfSquares(8, 3)),
		d.AddBlockType(NewSpec("mem").DistributedMemory(16, 128).Logic(60, 3, 2)),
		d.AddBlockType(NewSpec("giant").Logic(900, 4, 4).ShiftRegs(16, 8, 4, 4)),
		d.AddBlockType(NewSpec("lfsr").LFSRs(6, 12, true, true)),
		d.AddBlockType(NewSpec("srl").SRLs(12, 40, 2)),
	}
	prev := -1
	for i, ti := range append(types, types[1], types[5], types[3]) {
		inst, err := d.AddInstance(ti, string(rune('a'+i)))
		if err != nil {
			t.Fatal(err)
		}
		if prev >= 0 {
			if err := d.Connect(prev, inst, 16); err != nil {
				t.Fatal(err)
			}
		}
		prev = inst
	}
	return d
}

// compileWithin fails the test when a compile does not return: a worker
// waiting on a singleflight slot nobody fills would hang it forever.
func compileWithin(t *testing.T, f *Flow, d *Design, opts CompileOptions) (*CompileResult, error) {
	t.Helper()
	type out struct {
		res *CompileResult
		err error
	}
	done := make(chan out, 1)
	go func() {
		res, err := f.Compile(d, MinSweepCF(), opts)
		done <- out{res, err}
	}()
	select {
	case o := <-done:
		return o.res, o.err
	case <-time.After(2 * time.Minute):
		t.Fatalf("Compile with %d workers did not return", opts.Implement.Workers)
		return nil, nil
	}
}

// TestCompileScheduleInvariant: how many workers pull blocks, and so
// which block runs when and next to which, changes no field of the
// result — with and without a shared cache, with more workers than
// blocks, and with a worker parked on its twin's singleflight slot.
func TestCompileScheduleInvariant(t *testing.T) {
	f := verifyFlow(t)
	d := scheduleDesign(t)
	for _, cached := range []bool{false, true} {
		compile := func(workers int) *CompileResult {
			opts := CompileOptions{
				Stitch:    StitchOptions{Seed: 3, Anneal: AnnealOptions{Iterations: 4000}},
				Implement: ImplementOptions{Workers: workers},
			}
			if cached {
				opts.Implement.Cache = NewBlockCache()
			}
			res, err := compileWithin(t, f, d, opts)
			if err != nil {
				t.Fatal(err)
			}
			// The second twin is a memory hit when its worker arrives
			// after the first finished and a singleflight hit when it
			// arrives during; only the sum is the schedule's to keep.
			res.Cache.MemHits, res.Cache.SingleflightHits = res.Cache.MemHits+res.Cache.SingleflightHits, 0
			return res
		}
		want := compile(1)
		if cached && want.CacheHits != 1 {
			t.Fatalf("serial cached compile: %d cache hits, want the twin's 1", want.CacheHits)
		}
		for _, workers := range []int{2, 3, 8, 100} {
			if got := compile(workers); !reflect.DeepEqual(got, want) {
				t.Errorf("cached=%v workers=%d:\n%+v\nworkers=1:\n%+v", cached, workers, got, want)
			}
		}
	}
}

// TestCompileReportsLowestFailedBlock: when two blocks fail, the error
// is the lower-indexed block's on every schedule — also when the other,
// being larger, is started first.
func TestCompileReportsLowestFailedBlock(t *testing.T) {
	f := verifyFlow(t)
	d := NewDesign()
	d.AddBlockType(NewSpec("fits").ShiftRegs(4, 8, 2, 4))
	d.AddBlockType(NewSpec("too_big").Memory(512, 65536))
	d.AddBlockType(NewSpec("fits_too").Logic(80, 3, 2))
	d.AddBlockType(NewSpec("bigger_still").Memory(1024, 65536))
	if order := d.implementOrder(); order[0] != 3 || order[1] != 1 {
		t.Fatalf("order %v: want the later failing block started first", order)
	}
	for _, workers := range []int{1, 2, 8} {
		_, err := compileWithin(t, f, d, CompileOptions{SkipStitch: true, Implement: ImplementOptions{Workers: workers}})
		if err == nil || !strings.Contains(err.Error(), "block too_big:") {
			t.Errorf("workers=%d: error %v, want block too_big's", workers, err)
		}
	}
}

// TestCompileColdBytes gates what one cold cnvW1A1 compile allocates
// (BenchmarkCompileCold's B/op): 11.0 MB before the route tables were
// kept across a search's probes, 8.6 MB with them. Raise the bound only
// for a reason — on the 2-core benchmark box the allocation rate of the
// implement phase is what the peak RSS follows.
func TestCompileColdBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("cnv flow in -short mode")
	}
	const bound = 8_500_000
	res := testing.Benchmark(BenchmarkCompileCold)
	if got := res.AllocedBytesPerOp(); got > bound {
		t.Errorf("cold compile allocates %d B/op, bound %d", got, bound)
	}
	t.Logf("cold compile: %d B/op, %d allocs/op", res.AllocedBytesPerOp(), res.AllocsPerOp())
}
