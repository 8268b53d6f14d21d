package main

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// budget bounds a measured phase: a fixed op count (`bench run`, so the
// deterministic quality metrics are exact and a faster commit simply
// finishes sooner) or a duration (the driver's --seconds).
type budget struct {
	ops     int
	seconds float64
}

// share scales the budget, keeping at least minOps ops.
func (b budget) share(f float64, minOps int) budget {
	if b.ops > 0 {
		n := int(float64(b.ops)*f + 0.5)
		if n < minOps {
			n = minOps
		}
		return budget{ops: n}
	}
	return budget{seconds: b.seconds * f}
}

// loop calls op with i = 0, 1, ... until the budget is spent (always at
// least once).
func (b budget) loop(op func(i int)) {
	start := time.Now()
	for i := 0; ; i++ {
		if b.ops > 0 && i >= b.ops {
			return
		}
		if b.ops <= 0 && i > 0 && time.Since(start).Seconds() >= b.seconds {
			return
		}
		op(i)
	}
}

// opOutcome is one measured operation (one job on daemon-dse).
type opOutcome struct {
	// seq is the op's place in the generated sequence (op index; on
	// daemon-dse batch number and slot), whatever order ops complete in.
	seq      int
	ms       float64
	cpuMs    float64 // CPU the process spent during the op (library workloads)
	doneS    float64 // completion time since the phase started
	toolRuns float64
	unplaced float64
	cost     float64 // FinalCost + 2000*Unplaced
	failed   bool
}

// phase is one measured run of ops, in completion order.
type phase struct {
	ops []opOutcome
	// cycle is the number of ops after which the generated sequence
	// repeats (the stitch-seed cycle): op i and op i+cycle are the same
	// input. 0 when it never does (daemon-dse: novel variants are unique).
	cycle  int
	wallS  float64
	cpuMs  float64 // user+sys CPU of the process under test
	rssMB  float64 // its peak RSS (daemon-dse: at a fixed job count, see rssBatches)
	errors []string
}

func (p *phase) fail(o *opOutcome, format string, args ...any) {
	o.failed = true
	if len(p.errors) < 5 {
		p.errors = append(p.errors, fmt.Sprintf(format, args...))
	}
}

// latencies are the ops' times in milliseconds.
func (p *phase) latencies() []float64 {
	lat := make([]float64, len(p.ops))
	for i, o := range p.ops {
		lat[i] = o.ms
	}
	return lat
}

func (p *phase) failed() int {
	n := 0
	for _, o := range p.ops {
		if o.failed {
			n++
		}
	}
	return n
}

// spreadRounds is how many equal parts of a phase the timed metrics are
// recomputed on to estimate their within-run spread.
const spreadRounds = 5

// timedValues are the four timed end-to-end metrics of a stretch of ops.
type timedValues struct{ p50, p90, opsPerS, cpuMs float64 }

// plainTimed takes the statistics over every op of ops[lo:hi], in
// completion order. CPU time is known for a whole phase only.
func (p *phase) plainTimed(lo, hi int) timedValues {
	lat := p.latencies()[lo:hi]
	from := 0.0
	if lo > 0 {
		from = p.ops[lo-1].doneS
	}
	v := timedValues{p50: median(lat), p90: percentile(lat, 0.90),
		opsPerS: float64(hi-lo) / (p.ops[hi-1].doneS - from)}
	if lo == 0 && hi == len(p.ops) {
		v.opsPerS, v.cpuMs = float64(hi)/p.wallS, p.cpuMs/float64(hi)
	}
	return v
}

// bestTimed is the estimator of the library workloads, whose ops repeat
// a cycle of inputs: each input counts with the fastest of its repeats
// among the whole cycles of ops[lo:hi] (lo a multiple of the cycle), in
// wall time and in CPU time. The program is deterministic and has one
// caller, so whatever a repeat takes beyond the fastest one is the
// shared machine, not the program's work; the plain statistics over a
// 20-s run spread by 20-37 % between the driver's runs of the same code,
// these by 1-4 % (README.md). The percentiles are taken over the cycle's inputs, the
// rate and the CPU time are the cycle's totals.
func (p *phase) bestTimed(lo, hi int) timedValues {
	wall := make([]float64, p.cycle)
	cpu := make([]float64, p.cycle)
	for i := lo; i+p.cycle <= hi; i += p.cycle {
		for k, o := range p.ops[i : i+p.cycle] {
			if i == lo || o.ms < wall[k] {
				wall[k] = o.ms
			}
			if i == lo || o.cpuMs < cpu[k] {
				cpu[k] = o.cpuMs
			}
		}
	}
	return timedValues{p50: median(wall), p90: percentile(wall, 0.90),
		opsPerS: 1000 / mean(wall), cpuMs: mean(cpu)}
}

// endToEndMetrics derives the ten end-to-end metrics from a phase.
func endToEndMetrics(p phase, setupS []float64) map[string]metric {
	n := len(p.ops)
	// The timed metrics rest on `used` ops, taken in steps of `unit`.
	best := p.cycle > 0 && n >= p.cycle
	timed, unit := p.plainTimed, 1
	if best {
		timed, unit = p.bestTimed, p.cycle
	}
	steps := n / unit
	used := steps * unit
	all := timed(0, used)
	var raw timedValues // the plain statistics, where they are not the value itself
	if best {
		raw = p.plainTimed(0, n)
	}
	rounds := func(f func(timedValues) float64) []float64 {
		if steps < 2*spreadRounds {
			return nil
		}
		var out []float64
		for r := 0; r < spreadRounds; r++ {
			out = append(out, f(timed(r*steps/spreadRounds*unit, (r+1)*steps/spreadRounds*unit)))
		}
		return out
	}
	m := map[string]metric{
		"op_ms_p50": {Value: all.p50, N: used, Raw: raw.p50,
			Rounds: rounds(func(v timedValues) float64 { return v.p50 })},
		"op_ms_p90": {Value: all.p90, N: used, Raw: raw.p90,
			Rounds: rounds(func(v timedValues) float64 { return v.p90 })},
		"ops_per_s": {Value: all.opsPerS, N: used, Raw: raw.opsPerS,
			Rounds: rounds(func(v timedValues) float64 { return v.opsPerS })},
		"cpu_ms_per_op": {Value: all.cpuMs, N: used, Raw: raw.cpuMs},
		"peak_rss_mb":   {Value: p.rssMB, N: 1},
		"fail_share":    {Value: float64(p.failed()) / float64(n), N: n},
		"setup_s":       {Value: median(setupS), N: len(setupS), Rounds: setupS},
	}
	if best {
		e := m["cpu_ms_per_op"]
		e.Rounds = rounds(func(v timedValues) float64 { return v.cpuMs })
		m["cpu_ms_per_op"] = e
	}
	// The quality metrics sum in generation order, not completion order,
	// and over whole seed cycles, so that they are exact whatever the op
	// count. A sequence that never repeats (daemon-dse) is exact only at a
	// fixed op count: under --seconds the set of batches that fit varies.
	byGen := append([]opOutcome(nil), p.ops...)
	sort.SliceStable(byGen, func(i, j int) bool { return byGen[i].seq < byGen[j].seq })
	var runs, unplaced, cost float64
	for _, o := range byGen[:used] {
		runs += o.toolRuns
		unplaced += o.unplaced
		cost += o.cost
	}
	m["tool_runs_per_op"] = metric{Value: runs / float64(used), N: used}
	m["unplaced_per_op"] = metric{Value: unplaced / float64(used), N: used}
	m["stitch_cost_per_op"] = metric{Value: cost / float64(used), N: used}
	for _, d := range endToEnd {
		e := m[d.Name]
		e.Unit = d.Unit
		m[d.Name] = e
	}
	return m
}

// deriveSeeds draws n positive seeds from the run seed.
func deriveSeeds(rng *rand.Rand, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = rng.Int63n(1<<31-1) + 1
	}
	return out
}

// --- process accounting ---------------------------------------------------

// selfCPUms is this process's user+sys CPU time so far.
func selfCPUms() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e3 + float64(t.Usec)/1e3 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// procCPUms is another process's user+sys CPU time, read from
// /proc/<pid>/stat (fields 14 and 15, in 10 ms clock ticks).
func procCPUms(pid int) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	// The command name (field 2) may contain spaces; count from its ')'.
	s := string(data)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0
	}
	utime, _ := strconv.ParseFloat(f[11], 64)
	stime, _ := strconv.ParseFloat(f[12], 64)
	return (utime + stime) * 10
}

// peakRSSMB is a process's high-water resident set (VmHWM); pid 0 is
// this process.
func peakRSSMB(pid int) float64 {
	path := "/proc/self/status"
	if pid > 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}
