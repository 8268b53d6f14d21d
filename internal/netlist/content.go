package netlist

import (
	"io"
	"strconv"
)

// WriteContent streams the module's canonical content serialization to
// w: everything structural (logic depth, control sets, cells, nets,
// outputs) and nothing nominal, so renaming a module does not change a
// byte. It is the single definition of "same module" that the placer's
// jitter seed (internal/place) and the implementation cache's keys
// (implcache.ModuleHash) both hash, which is what lets a cache hit stand
// in for a fresh run.
//
// The byte stream is part of the persistent cache's key format; changing
// it re-keys every record on disk. One record per line:
//
//	depth <logicDepth>
//	cs <clk> <rst> <en>
//	cell <kind> <controlSet> <chain> <chainPos>
//	net <driver> <sink> <sink> ...
//	out <net>
//
// with every field a signed decimal (absent references print as -1).
// Unlike WriteText it never formats through fmt: the stream is hashed
// once per minimal-CF search and once per cache lookup, on modules of
// 10^5 fields.
func (m *Module) WriteContent(w io.Writer) error {
	c := contentWriter{w: w, buf: make([]byte, 0, contentFlushAt+64)}
	c.line("depth", int64(m.LogicDepth))
	for _, cs := range m.ControlSets {
		c.line("cs", int64(cs.Clk), int64(cs.Rst), int64(cs.En))
	}
	for i := range m.Cells {
		cell := &m.Cells[i]
		c.line("cell", int64(cell.Kind), int64(cell.ControlSet), int64(cell.Chain), int64(cell.ChainPos))
	}
	for ni := range m.Nets {
		n := &m.Nets[ni]
		c.tag("net")
		c.field(int64(n.Driver))
		for _, s := range n.Sinks {
			c.field(int64(s))
		}
		c.end()
	}
	for _, o := range m.Outputs {
		c.line("out", int64(o))
	}
	c.flush()
	return c.err
}

// contentFlushAt is the buffered size at which a contentWriter hands its
// bytes on. Fields are appended whole, so the buffer's capacity leaves
// room for one past the threshold.
const contentFlushAt = 1024

// contentWriter appends records to one reused buffer and writes it out
// whenever it fills; the first write error sticks.
type contentWriter struct {
	w   io.Writer
	buf []byte
	err error
}

func (c *contentWriter) tag(s string) { c.buf = append(c.buf, s...) }

func (c *contentWriter) field(v int64) {
	c.buf = append(c.buf, ' ')
	c.buf = strconv.AppendInt(c.buf, v, 10)
	// A high-fanout net is one long line: flush mid-line too.
	if len(c.buf) >= contentFlushAt {
		c.flush()
	}
}

func (c *contentWriter) end() { c.buf = append(c.buf, '\n') }

func (c *contentWriter) line(tag string, fields ...int64) {
	c.tag(tag)
	for _, v := range fields {
		c.field(v)
	}
	c.end()
}

func (c *contentWriter) flush() {
	if c.err == nil && len(c.buf) > 0 {
		_, c.err = c.w.Write(c.buf)
	}
	c.buf = c.buf[:0]
}
