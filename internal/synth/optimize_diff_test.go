package synth_test

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"macroflow/internal/cnv"
	"macroflow/internal/netlist"
	"macroflow/internal/rtlgen"
	"macroflow/internal/synth"
)

func content(t *testing.T, m *netlist.Module) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := m.WriteContent(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// diffOptimize runs Optimize on one copy of a module and the reference
// passes on another; the two must remove the same counts and leave
// byte-identical content (every cache key and placer seed hashes it).
func diffOptimize(t *testing.T, name string, build func() *netlist.Module) {
	t.Helper()
	got, want := build(), build()
	gotRes, gotErr := synth.Optimize(got)
	wantRes, wantErr := refOptimize(want)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: Optimize error %v, reference error %v", name, gotErr, wantErr)
	}
	if gotRes != wantRes {
		t.Errorf("%s: removed %+v, reference %+v", name, gotRes, wantRes)
	}
	if !bytes.Equal(content(t, got), content(t, want)) {
		t.Errorf("%s: content differs from the reference optimizer's", name)
	}
}

func elaborated(t *testing.T, spec rtlgen.Spec) func() *netlist.Module {
	return func() *netlist.Module {
		m, err := synth.Elaborate(spec)
		if err != nil {
			t.Fatalf("Elaborate(%s): %v", spec.Name, err)
		}
		return m
	}
}

func TestOptimizeMatchesReferenceCNV(t *testing.T) {
	d := cnv.CNVW1A1()
	if len(d.Types) != 74 {
		t.Fatalf("cnvW1A1 has %d block types, want 74", len(d.Types))
	}
	for ti := range d.Types {
		diffOptimize(t, d.Types[ti].Name, elaborated(t, d.Types[ti].Spec))
	}
}

func TestOptimizeMatchesReferenceCorpus(t *testing.T) {
	for _, spec := range rtlgen.GenerateMix(rand.New(rand.NewSource(18)), 200) {
		diffOptimize(t, spec.Name, elaborated(t, spec))
	}
}

// parsed returns a builder for a module in netlist.WriteText's format.
func parsed(t *testing.T, text string) func() *netlist.Module {
	return func() *netlist.Module {
		m, err := netlist.ReadText(strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
}

func TestOptimizeMatchesReferenceHandBuilt(t *testing.T) {
	// Cells 0 and 1 read the same eight nets; cell 2 differs in its last
	// input, cell 3 reads a six-net prefix and cell 4 that prefix with
	// one net sunk twice. Only cell 1 may merge, into cell 0.
	const wide = `module wide depth 1
cell LUT
cell LUT
cell LUT
cell LUT
cell LUT
net - 0 1 2 3 4 4
net - 0 1 2 3 4
net - 0 1 2 3 4
net - 0 1 2 3 4
net - 0 1 2 3 4
net - 0 1 2 3 4
net - 0 1 2
net - 0 1
net - 2
net 0
net 1
net 2
net 3
net 4
out 9
out 10
out 11
out 12
out 13
`
	diffOptimize(t, "fan-in 8", parsed(t, wide))
	m := parsed(t, wide)()
	if res, err := synth.Optimize(m); err != nil || res.DedupedLUTs != 1 {
		t.Errorf("fan-in 8: deduped %d LUTs (err %v), want exactly the one true duplicate", res.DedupedLUTs, err)
	}

	// A duplicate of a duplicate: A and B read x; C reads A's output and
	// D reads B's. One pass merges B into A and leaves C and D reading
	// the same net, unmerged, exactly as the reference does.
	diffOptimize(t, "dup of a dup", parsed(t, `module dd depth 2
cell LUT
cell LUT
cell LUT
cell LUT
net - 0 1
net 0 2
net 1 3
net 2
net 3
out 3
out 4
`))

	// Chain renumbering: chain 0 is dead, chains 5 and 2 survive and
	// must become 0 and 1 in order of first appearance; a dead LUT in
	// front shifts every cell ID.
	diffOptimize(t, "chain renumbering", parsed(t, `module ch depth 3
cell LUT
cell CARRY4 chain 0 0
cell CARRY4 chain 0 1
cell CARRY4 chain 5 0
cell CARRY4 chain 2 0
cell CARRY4 chain 5 1
cell CARRY4 chain 2 1
net - 0 1 3 4
net 0
net 2
net 5
net 6
out 3
out 4
`))

	// No outputs: nothing is observable and everything stays.
	diffOptimize(t, "no outputs", parsed(t, "module n depth 1\ncell LUT\ncell LUT\nnet - 0 1\nnet 0\nnet 1\n"))
}

// TestAddCarryChainAfterDirectAppend: chain IDs stay distinct when cells
// arrive both through AddCarryChain and by direct append, as ReadText
// and literal modules do, and after a compaction shrank the module.
func TestAddCarryChainAfterDirectAppend(t *testing.T) {
	m := netlist.NewModule("lit")
	a := m.AddCarryChain(2)
	m.Cells = append(m.Cells, netlist.Cell{Kind: netlist.CellCarry, ControlSet: netlist.NoID, Chain: 7, ChainPos: 0})
	b := m.AddCarryChain(1)
	if got := m.Cells[b[0]].Chain; got != 8 {
		t.Errorf("chain after a directly appended chain 7 = %d, want 8", got)
	}
	if m.Cells[a[0]].Chain != 0 {
		t.Errorf("first chain = %d, want 0", m.Cells[a[0]].Chain)
	}
	// Only chain 8 is observable: compaction renumbers it to 0, and the
	// next chain must follow the renumbered module, not the old counter.
	m.MarkOutput(m.AddNet(b[0]))
	if _, err := synth.Optimize(m); err != nil {
		t.Fatal(err)
	}
	c := m.AddCarryChain(1)
	if got := m.Cells[c[0]].Chain; got != 1 {
		t.Errorf("chain after compaction = %d, want 1", got)
	}
}

// TestOptimizeAllocs: the optimizer works in a fixed number of tables
// per module, however many cells the module has.
func TestOptimizeAllocs(t *testing.T) {
	const bound = 32
	for _, luts := range []int{200, 2000, 20000} {
		spec := rtlgen.Spec{Name: "allocs", Components: []rtlgen.Component{
			rtlgen.RandomLogic{LUTs: luts, Fanin: 4, Depth: 5, Seed: 9},
			rtlgen.ShiftRegs{Count: luts / 50, Length: 8, ControlSets: 4, Fanin: 12, NoSRL: true},
			rtlgen.SumOfSquares{Width: 8, Terms: 2},
		}}
		const runs = 5
		mods := make([]*netlist.Module, runs+1) // AllocsPerRun warms up once
		for i := range mods {
			mods[i] = elaborated(t, spec)()
		}
		next := 0
		var res synth.OptResult
		allocs := testing.AllocsPerRun(runs, func() {
			var err error
			if res, err = synth.Optimize(mods[next]); err != nil {
				t.Fatal(err)
			}
			next++
		})
		if res.DedupedLUTs == 0 || res.DeadCells == 0 {
			t.Fatalf("%d LUTs: the module exercises no removal (%+v)", luts, res)
		}
		if allocs > bound {
			t.Errorf("%d LUTs: Optimize made %.0f allocations, want at most %d", luts, allocs, bound)
		}
	}
}

// TestElaborateReservesExactly: Elaborate's up-front reservation is the
// module it then builds, to the cell and the net, on every cnv block and
// across the generator families — neither array is ever regrown.
func TestElaborateReservesExactly(t *testing.T) {
	specs := rtlgen.GenerateMix(rand.New(rand.NewSource(18)), 200)
	d := cnv.CNVW1A1()
	for ti := range d.Types {
		specs = append(specs, d.Types[ti].Spec)
	}
	for _, spec := range specs {
		m := elaborated(t, spec)()
		if cap(m.Cells) != len(m.Cells) || cap(m.Nets) != len(m.Nets) {
			t.Errorf("%s: reserved %d cells and %d nets, built %d and %d",
				spec.Name, cap(m.Cells), cap(m.Nets), len(m.Cells), len(m.Nets))
		}
	}
}
