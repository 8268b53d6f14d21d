package netlist

import (
	"math"
	"strconv"
	"testing"
	"testing/quick"
)

func buildSample() *Module {
	m := NewModule("sample")
	cs0 := m.AddControlSet(ControlSet{Clk: 0, Rst: 1, En: 2})
	cs1 := m.AddControlSet(ControlSet{Clk: 0, Rst: 1, En: 3})
	l0 := m.AddCell(CellLUT)
	l1 := m.AddCell(CellLUT)
	f0 := m.AddSeqCell(CellFF, cs0)
	f1 := m.AddSeqCell(CellFF, cs1)
	r0 := m.AddSeqCell(CellLUTRAM, cs0)
	chain := m.AddCarryChain(3)
	m.AddNet(l0, f0, f1, r0)
	m.AddNet(l1, chain[0])
	n := m.AddNet(f0, l1)
	m.AddSink(n, l0)
	m.LogicDepth = 4
	return m
}

func TestComputeStats(t *testing.T) {
	m := buildSample()
	s := m.ComputeStats()
	if s.LUTs != 2 || s.FFs != 2 || s.LUTRAMs != 1 || s.Carrys != 3 {
		t.Fatalf("counts wrong: %+v", s)
	}
	if s.ControlSets != 2 {
		t.Errorf("control sets = %d, want 2", s.ControlSets)
	}
	if s.MaxFanout != 3 {
		t.Errorf("max fanout = %d, want 3", s.MaxFanout)
	}
	if s.MaxCarryChain != 3 || s.NumChains != 1 {
		t.Errorf("chain stats wrong: %+v", s)
	}
	if s.MDemand() != 1 {
		t.Errorf("M demand = %d, want 1", s.MDemand())
	}
	if s.TotalCells() != 8 {
		t.Errorf("total cells = %d, want 8", s.TotalCells())
	}
	if s.LogicDepth != 4 {
		t.Errorf("logic depth = %d, want 4", s.LogicDepth)
	}
}

func TestControlSetInterning(t *testing.T) {
	m := NewModule("cs")
	a := m.AddControlSet(ControlSet{1, 2, 3})
	b := m.AddControlSet(ControlSet{1, 2, 3})
	c := m.AddControlSet(ControlSet{1, 2, 4})
	if a != b {
		t.Error("identical control sets must intern to one index")
	}
	if a == c {
		t.Error("distinct control sets must not collide")
	}
	if len(m.ControlSets) != 2 {
		t.Errorf("stored %d control sets, want 2", len(m.ControlSets))
	}
}

func TestValidateAcceptsSample(t *testing.T) {
	if err := buildSample().Validate(); err != nil {
		t.Fatalf("valid module rejected: %v", err)
	}
}

func TestValidateRejectsBadNet(t *testing.T) {
	m := NewModule("bad")
	m.AddCell(CellLUT)
	m.Nets = append(m.Nets, Net{Driver: 5})
	if err := m.Validate(); err == nil {
		t.Error("out-of-range driver must be rejected")
	}
	m2 := NewModule("bad2")
	l := m2.AddCell(CellLUT)
	m2.Nets = append(m2.Nets, Net{Driver: l, Sinks: []CellID{9}})
	if err := m2.Validate(); err == nil {
		t.Error("out-of-range sink must be rejected")
	}
}

func TestValidateRejectsBrokenChain(t *testing.T) {
	m := NewModule("chain")
	m.Cells = append(m.Cells, Cell{Kind: CellCarry, ControlSet: NoID, Chain: 0, ChainPos: 1})
	if err := m.Validate(); err == nil {
		t.Error("chain with a hole at position 0 must be rejected")
	}
}

func TestValidateRejectsSeqWithoutControlSet(t *testing.T) {
	m := NewModule("seq")
	m.Cells = append(m.Cells, Cell{Kind: CellFF, ControlSet: NoID, Chain: NoID, ChainPos: NoID})
	if err := m.Validate(); err == nil {
		t.Error("FF without control set must be rejected")
	}
}

func TestAddSeqCellPanicsOnCombinational(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("AddSeqCell(CellLUT) must panic")
		}
	}()
	m := NewModule("p")
	m.AddSeqCell(CellLUT, 0)
}

func TestMultipleCarryChainsGetDistinctIDs(t *testing.T) {
	m := NewModule("chains")
	m.AddCarryChain(2)
	m.AddCarryChain(4)
	m.AddCarryChain(1)
	lengths := m.CarryChains()
	if len(lengths) != 3 {
		t.Fatalf("chain count = %d, want 3", len(lengths))
	}
	if lengths[0] != 2 || lengths[1] != 4 || lengths[2] != 1 {
		t.Errorf("chain lengths = %v", lengths)
	}
	if err := m.Validate(); err != nil {
		t.Errorf("chains must validate: %v", err)
	}
}

func TestCellKindStrings(t *testing.T) {
	want := map[CellKind]string{
		CellLUT: "LUT", CellFF: "FF", CellCarry: "CARRY4",
		CellLUTRAM: "LUTRAM", CellSRL: "SRL", CellBRAM: "RAMB36", CellDSP: "DSP48",
	}
	for k, w := range want {
		if k.String() != w {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), w)
		}
	}
	if CellKind(99).String() != "?" {
		t.Error("unknown kind must stringify as ?")
	}
}

func TestKindPredicates(t *testing.T) {
	if !CellLUTRAM.NeedsMSlice() || !CellSRL.NeedsMSlice() || CellLUT.NeedsMSlice() || CellFF.NeedsMSlice() {
		t.Error("NeedsMSlice wrong")
	}
	if !CellFF.Sequential() || !CellLUTRAM.Sequential() || !CellSRL.Sequential() ||
		CellLUT.Sequential() || CellCarry.Sequential() || CellBRAM.Sequential() {
		t.Error("Sequential wrong")
	}
}

// Property: stats counters always sum to the number of cells, and max
// fanout never exceeds the cell count.
func TestStatsConsistencyProperty(t *testing.T) {
	f := func(nLUT, nFF, chain, fan uint8) bool {
		m := NewModule("prop")
		cs := m.AddControlSet(ControlSet{0, 0, 0})
		var ids []CellID
		for i := 0; i < int(nLUT)%30; i++ {
			ids = append(ids, m.AddCell(CellLUT))
		}
		for i := 0; i < int(nFF)%30; i++ {
			ids = append(ids, m.AddSeqCell(CellFF, cs))
		}
		if c := int(chain) % 8; c > 0 {
			ids = append(ids, m.AddCarryChain(c)...)
		}
		if len(ids) > 1 {
			k := 1 + int(fan)%(len(ids)-1)
			m.AddNet(ids[0], ids[1:1+k]...)
		}
		s := m.ComputeStats()
		if s.TotalCells() != m.NumCells() {
			return false
		}
		return s.MaxFanout <= m.NumCells()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestAppendDecimalMatchesStrconv holds the content stream's decimal
// writer to strconv.AppendInt at every digit-count boundary, both signs
// and both int64 extremes, beyond the small indices the module corpora
// exercise.
func TestAppendDecimalMatchesStrconv(t *testing.T) {
	vals := []int64{math.MinInt64, math.MaxInt64, math.MinInt64 + 1}
	for p := int64(1); p <= 1e18; p *= 10 {
		for _, v := range []int64{p - 1, p, p + 1, 2*p - 1, 9 * p} {
			vals = append(vals, v, -v)
		}
	}
	for v := int64(-1); v <= 10100; v++ {
		vals = append(vals, v)
	}
	for _, v := range vals {
		if got, want := string(appendDecimal([]byte("x"), v)), strconv.FormatInt(v, 10); got != "x"+want {
			t.Fatalf("appendDecimal(%d) = %q, want %q", v, got[1:], want)
		}
	}
}
