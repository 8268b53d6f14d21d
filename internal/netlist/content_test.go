package netlist_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"macroflow/internal/cnv"
	"macroflow/internal/netlist"
	"macroflow/internal/rtlgen"
	"macroflow/internal/synth"
)

// legacyContent is the fmt-based serializer that place.contentSeed and
// implcache.ModuleHash each carried a copy of before WriteContent
// replaced both. It stays here as the reference: persistent cache keys
// and placer seeds are hashes of this exact byte stream, so WriteContent
// must reproduce it byte for byte, forever.
func legacyContent(w io.Writer, m *netlist.Module) {
	fmt.Fprintf(w, "depth %d\n", m.LogicDepth)
	for _, cs := range m.ControlSets {
		fmt.Fprintf(w, "cs %d %d %d\n", cs.Clk, cs.Rst, cs.En)
	}
	for i := range m.Cells {
		c := &m.Cells[i]
		fmt.Fprintf(w, "cell %d %d %d %d\n", c.Kind, c.ControlSet, c.Chain, c.ChainPos)
	}
	for ni := range m.Nets {
		n := &m.Nets[ni]
		fmt.Fprintf(w, "net %d", n.Driver)
		for _, s := range n.Sinks {
			fmt.Fprintf(w, " %d", s)
		}
		fmt.Fprintln(w)
	}
	for _, o := range m.Outputs {
		fmt.Fprintf(w, "out %d\n", o)
	}
}

func requireSameContent(t testing.TB, m *netlist.Module) {
	t.Helper()
	var want, got bytes.Buffer
	legacyContent(&want, m)
	if err := m.WriteContent(&got); err != nil {
		t.Fatalf("%s: WriteContent: %v", m.Name, err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatalf("%s: WriteContent differs from the legacy stream (%d vs %d bytes)",
			m.Name, got.Len(), want.Len())
	}
}

// TestWriteContentMatchesLegacyCNV covers every block type of cnvW1A1.
func TestWriteContentMatchesLegacyCNV(t *testing.T) {
	d := cnv.CNVW1A1()
	if len(d.Types) != 74 {
		t.Fatalf("cnvW1A1 has %d block types, the golden set expects 74", len(d.Types))
	}
	for ti := range d.Types {
		m, err := d.Module(ti)
		if err != nil {
			t.Fatal(err)
		}
		requireSameContent(t, m)
	}
}

// TestWriteContentMatchesLegacyCorpus covers a 200-module mix of every
// generator family of the dataset.
func TestWriteContentMatchesLegacyCorpus(t *testing.T) {
	for _, spec := range rtlgen.GenerateMix(rand.New(rand.NewSource(11)), 200) {
		m, err := synth.Elaborate(spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := synth.Optimize(m); err != nil {
			t.Fatal(err)
		}
		requireSameContent(t, m)
	}
}

// TestWriteContentIgnoresName: the stream is content, not identity.
func TestWriteContentIgnoresName(t *testing.T) {
	a, b := moduleFromBytes([]byte("rename me")), moduleFromBytes([]byte("rename me"))
	b.Name = "other"
	var sa, sb bytes.Buffer
	if err := a.WriteContent(&sa); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteContent(&sb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sa.Bytes(), sb.Bytes()) {
		t.Fatal("module name leaked into the content stream")
	}
}

type failingWriter struct{ after int }

var errSink = errors.New("sink full")

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.after--; w.after < 0 {
		return 0, errSink
	}
	return len(p), nil
}

// TestWriteContentReportsWriteError: a failing writer's error comes
// back, from the first flush or a later one.
func TestWriteContentReportsWriteError(t *testing.T) {
	m, err := cnv.CNVW1A1().Module(14) // many flushes long
	if err != nil {
		t.Fatal(err)
	}
	for _, after := range []int{0, 3} {
		if err := m.WriteContent(&failingWriter{after: after}); !errors.Is(err, errSink) {
			t.Fatalf("after %d writes: got %v, want errSink", after, err)
		}
	}
}

// moduleFromBytes decodes an arbitrary, not necessarily valid, module
// from a byte string: a varint stream filling every field WriteContent
// prints, negative and extreme values included. Missing bytes read as 0.
func moduleFromBytes(data []byte) *netlist.Module {
	next := func() int64 {
		v, n := binary.Varint(data)
		if n <= 0 {
			data = nil
			return 0
		}
		data = data[n:]
		return v
	}
	count := func(max int64) int {
		v := next() % max
		if v < 0 {
			v = -v
		}
		return int(v)
	}
	m := netlist.NewModule("fuzz")
	m.LogicDepth = int(next())
	for i := count(6); i > 0; i-- {
		m.ControlSets = append(m.ControlSets, netlist.ControlSet{Clk: int32(next()), Rst: int32(next()), En: int32(next())})
	}
	for i := count(40); i > 0; i-- {
		m.Cells = append(m.Cells, netlist.Cell{
			Kind: netlist.CellKind(next()), ControlSet: int32(next()),
			Chain: int32(next()), ChainPos: int32(next()),
		})
	}
	for i := count(40); i > 0; i-- {
		n := netlist.Net{Driver: netlist.CellID(next())}
		// Up to 2000 sinks: a net line longer than the writer's buffer.
		for j := count(2000); j > 0; j-- {
			n.Sinks = append(n.Sinks, netlist.CellID(next()))
		}
		m.Nets = append(m.Nets, n)
	}
	for i := count(8); i > 0; i-- {
		m.Outputs = append(m.Outputs, netlist.NetID(next()))
	}
	return m
}

// FuzzModuleContent holds WriteContent to the legacy stream on
// arbitrary modules.
func FuzzModuleContent(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("macroflow"))
	f.Add(binary.AppendVarint(nil, -1<<63))
	// One net with ~1900 sinks, then extreme IDs.
	long := []byte{6, 0, 0, 2, 1}
	long = binary.AppendVarint(long, 1900)
	for i := 0; i < 1900; i++ {
		long = binary.AppendVarint(long, int64(i)*1_000_003-1<<31)
	}
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) {
		requireSameContent(t, moduleFromBytes(data))
	})
}
