// Package cnv models the paper's case study: the cnvW1A1 binarized
// convolutional network (BNN-PYNQ), partitioned FINN-style for a
// pre-implemented-block flow (§III).
//
// The block design matches the paper's published inventory: 175 block
// instances of 74 unique types; separate blocks for the matrix-vector
// activation units (MVAUs), sliding-window units, weight memories,
// thresholding/activation units and max pools; 48-way MVAU reuse across
// layers one and two and 20-way reuse across layers three and four; the
// four-instance mvau_18 and the single large weights_14 of Table I. Block
// internals are synthesized from the same component library as the
// estimator dataset, with parameters chosen so per-block and whole-design
// resource usage lands where the paper reports it (weights_14 at roughly
// 1.4k slices, mvau_18 at roughly 30, the full design filling an xc7z020).
package cnv

import (
	"fmt"
	"hash/fnv"
	"sync"

	"macroflow/internal/netlist"
	"macroflow/internal/rtlgen"
	"macroflow/internal/synth"
)

// BlockKind classifies a block type by its role in the network.
type BlockKind string

// Block kinds of the FINN-style partitioning.
const (
	KindMVAU    BlockKind = "mvau"
	KindWeights BlockKind = "weights"
	KindSWU     BlockKind = "swu"
	KindThres   BlockKind = "thres"
	KindPool    BlockKind = "pool"
	KindFIFO    BlockKind = "fifo"
	KindDWC     BlockKind = "dwc"
)

// BlockType is one unique block configuration: it is synthesized and
// implemented once and its placed-and-routed result is reused by every
// instance (the RapidWright premise).
type BlockType struct {
	Name string
	Kind BlockKind
	Spec rtlgen.Spec

	once sync.Once
	mod  *netlist.Module
	err  error
}

// Instance is one occurrence of a block type in the diagram.
type Instance struct {
	Name  string
	Type  int // index into Design.Types
	Layer int // network layer (1..9), 0 for glue blocks
}

// Net is a point-to-point stream between two instances.
type Net struct {
	From, To int // instance indices
	Width    int // bits, used as wirelength weight by the stitcher
}

// Design is the full partitioned block design.
type Design struct {
	Types     []BlockType
	Instances []Instance
	Nets      []Net
}

// Module elaborates and optimizes the netlist of type ti, caching the
// result; concurrent calls are safe.
func (d *Design) Module(ti int) (*netlist.Module, error) {
	t := &d.Types[ti]
	t.once.Do(func() {
		m, err := synth.Elaborate(t.Spec)
		if err != nil {
			t.err = err
			return
		}
		if _, err := synth.Optimize(m); err != nil {
			t.err = err
			return
		}
		t.mod = m
	})
	return t.mod, t.err
}

// TypeIndex returns the index of the named type, or -1.
func (d *Design) TypeIndex(name string) int {
	for i := range d.Types {
		if d.Types[i].Name == name {
			return i
		}
	}
	return -1
}

// InstanceCount returns how many instances use type ti.
func (d *Design) InstanceCount(ti int) int {
	n := 0
	for _, inst := range d.Instances {
		if inst.Type == ti {
			n++
		}
	}
	return n
}

func seedOf(name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return int64(h.Sum64() & 0x7fffffffffffffff)
}

// --- block spec constructors ------------------------------------------

// mvauSpec models a binarized matrix-vector activation unit: an XNOR /
// popcount LUT cloud, per-PE accumulators with carry chains, and a deep
// pipeline/stream register stage. The register count is derived so the
// module is mildly flip-flop-bound: real MVAUs are heavily pipelined,
// and this is what lets the vendor tool (and tight PBlocks) implement
// them at correction factors near 1.0 (Table I).
func mvauSpec(name string, pe, simd, accW int) rtlgen.Spec {
	luts := pe * simd
	adders := max(1, accW/2-1)
	chainLen := (accW + 1) / 2
	accLen := (2*accW + log2(pe+1) + 3) / 4
	carry := pe*adders*chainLen + accLen
	ffTarget := 8 * ((luts+3)/4 + carry + 2)
	length := max(2, ffTarget/8)
	return rtlgen.Spec{Name: name, Components: []rtlgen.Component{
		rtlgen.RandomLogic{LUTs: luts, Fanin: 5, Depth: 3, Seed: seedOf(name)},
		rtlgen.SumOfSquares{Width: accW, Terms: pe},
		rtlgen.ShiftRegs{Count: 8, Length: length, ControlSets: 2, Fanin: 2, NoSRL: true},
	}}
}

func log2(n int) int {
	l := 0
	for v := 1; v < n; v <<= 1 {
		l++
	}
	return l
}

// weightsSpec models a FINN weight memory. Distributed banks are pure
// LUTRAM (the Table I weights_14 configuration); block-RAM banks infer
// RAMB36 plus decode logic and an output pipeline, which is how most
// cnvW1A1 weights actually map on an xc7z020 (the device does not have
// enough M slices to hold every layer's weights in LUTRAM).
func weightsSpec(name string, width, depth int, distributed bool, logicLUTs int) rtlgen.Spec {
	if distributed {
		return rtlgen.Spec{Name: name, Components: []rtlgen.Component{
			rtlgen.LUTMemory{Width: width, Depth: depth, ForceDistributed: true},
			rtlgen.RandomLogic{LUTs: logicLUTs, Fanin: 4, Depth: 3, Seed: seedOf(name)},
		}}
	}
	return rtlgen.Spec{Name: name, Components: []rtlgen.Component{
		rtlgen.LUTMemory{Width: width, Depth: depth},
		rtlgen.RandomLogic{LUTs: width * 6, Fanin: 4, Depth: 2, Seed: seedOf(name)},
		rtlgen.ShiftRegs{Count: 4, Length: max(2, width/2), ControlSets: 1, Fanin: 2, NoSRL: true},
	}}
}

// swuSpec models a sliding-window unit: SRL line buffers, a small
// distributed-RAM reorder buffer and address/control logic.
func swuSpec(name string, lineBufs, lineLen, ctlLUTs int) rtlgen.Spec {
	return rtlgen.Spec{Name: name, Components: []rtlgen.Component{
		rtlgen.ShiftRegs{Count: lineBufs, Length: lineLen, ControlSets: 2, Fanin: 2, NoSRL: false},
		rtlgen.LUTMemory{Width: 8, Depth: 32},
		rtlgen.RandomLogic{LUTs: ctlLUTs, Fanin: 4, Depth: 3, Seed: seedOf(name)},
	}}
}

// thresSpec models a multi-threshold activation unit: comparators with
// carry chains plus output registers.
func thresSpec(name string, cmpLUTs, cmpW, terms int) rtlgen.Spec {
	return rtlgen.Spec{Name: name, Components: []rtlgen.Component{
		rtlgen.RandomLogic{LUTs: cmpLUTs, Fanin: 4, Depth: 2, Seed: seedOf(name)},
		rtlgen.SumOfSquares{Width: cmpW, Terms: terms},
	}}
}

// poolSpec models a max-pool unit: comparator LUTs and window registers.
func poolSpec(name string, cmpLUTs int) rtlgen.Spec {
	return rtlgen.Spec{Name: name, Components: []rtlgen.Component{
		rtlgen.RandomLogic{LUTs: cmpLUTs, Fanin: 4, Depth: 2, Seed: seedOf(name)},
		rtlgen.ShiftRegs{Count: 4, Length: 6, ControlSets: 1, Fanin: 2, NoSRL: true},
	}}
}

// fifoSpec models a stream FIFO: a distributed-RAM buffer plus
// counter carry logic.
func fifoSpec(name string, width, depth int) rtlgen.Spec {
	return rtlgen.Spec{Name: name, Components: []rtlgen.Component{
		rtlgen.LUTMemory{Width: width, Depth: depth},
		rtlgen.SumOfSquares{Width: 5, Terms: 1},
	}}
}

// dwcSpec models a data-width converter: mux logic and holding registers.
func dwcSpec(name string, luts int) rtlgen.Spec {
	return rtlgen.Spec{Name: name, Components: []rtlgen.Component{
		rtlgen.RandomLogic{LUTs: luts, Fanin: 4, Depth: 2, Seed: seedOf(name)},
		rtlgen.ShiftRegs{Count: 2, Length: 4, ControlSets: 1, Fanin: 2, NoSRL: true},
	}}
}

// --- the cnvW1A1 block design -----------------------------------------

// CNVW1A1 constructs the partitioned cnvW1A1 block design: 175 block
// instances over 74 unique types.
func CNVW1A1() *Design {
	d := &Design{}
	typeIdx := map[string]int{}
	addType := func(name string, kind BlockKind, spec rtlgen.Spec) int {
		if i, ok := typeIdx[name]; ok {
			return i
		}
		d.Types = append(d.Types, BlockType{Name: name, Kind: kind, Spec: spec})
		typeIdx[name] = len(d.Types) - 1
		return len(d.Types) - 1
	}
	addInst := func(ti, layer int) int {
		n := 0
		for _, in := range d.Instances {
			if in.Type == ti {
				n++
			}
		}
		d.Instances = append(d.Instances, Instance{
			Name:  fmt.Sprintf("%s_inst%d", d.Types[ti].Name, n),
			Type:  ti,
			Layer: layer,
		})
		return len(d.Instances) - 1
	}
	connect := func(from, to, width int) {
		if from >= 0 && to >= 0 {
			d.Nets = append(d.Nets, Net{From: from, To: to, Width: width})
		}
	}

	// Weight bank schedule: 30 unique single-instance banks. Bank 14 is
	// the big fully connected memory of Table I (weights_14); sizes
	// follow the FINN pattern of growing weight volume toward the deep
	// layers.
	bankW := make([]int, 30)
	bankD := make([]int, 30)
	for i := range bankW {
		switch {
		case i < 4: // conv1/conv2 banks
			bankW[i] = 24
			bankD[i] = 256 + 64*i
		case i < 10: // conv3/conv4 banks
			bankW[i] = 32
			bankD[i] = 704 + 64*(i-4)
		case i < 14: // conv5/conv6 banks
			bankW[i] = 40
			bankD[i] = 768 + 128*(i-10)
		case i == 14: // the Table I giant
			bankW[i] = 48
			bankD[i] = 768
		case i < 22: // fc7/fc8 banks
			bankW[i] = 40
			bankD[i] = 1152 + 128*(i-15)
		default: // fc9 and spares
			bankW[i] = 24
			bankD[i] = 512 + 64*(i-22)
		}
	}
	weightType := make([]int, 30)
	for i := range bankW {
		// Conv1/conv2 banks and the giant fc bank stay in distributed
		// RAM; the rest infer BRAM (the xc7z020 M-slice budget cannot
		// hold every layer's weights in LUTRAM).
		distributed := i < 4 || i == 14
		// Distribution/serialization logic scales with the bank width;
		// the fc bank additionally carries the PE interleaving network
		// that makes weights_14 the largest block of the design.
		logicLUTs := bankW[i] * 2
		if i == 14 {
			logicLUTs = 3800
		}
		weightType[i] = addType(fmt.Sprintf("weights_%d", i), KindWeights,
			weightsSpec(fmt.Sprintf("weights_%d", i), bankW[i], bankD[i], distributed, logicLUTs))
	}

	// Shared MVAU types.
	mvauL12 := addType("mvau_l12", KindMVAU, mvauSpec("mvau_l12", 4, 36, 7))
	mvauL34 := addType("mvau_l34", KindMVAU, mvauSpec("mvau_l34", 8, 36, 8))
	mvauL5 := addType("mvau_l5", KindMVAU, mvauSpec("mvau_l5", 8, 36, 8))
	mvauL6 := addType("mvau_l6", KindMVAU, mvauSpec("mvau_l6", 8, 34, 8))
	mvauFC7 := addType("mvau_fc7", KindMVAU, mvauSpec("mvau_fc7", 6, 34, 8))
	// mvau_18 of Table I: small, four instances (fc8).
	mvau18 := addType("mvau_18", KindMVAU, mvauSpec("mvau_18", 2, 44, 6))
	mvauFC9 := addType("mvau_fc9", KindMVAU, mvauSpec("mvau_fc9", 2, 24, 7))

	// SWU types: layers 3/4 share one configuration, as do 5/6.
	swu1 := addType("swu_1", KindSWU, swuSpec("swu_1", 8, 128, 260))
	swu2 := addType("swu_2", KindSWU, swuSpec("swu_2", 8, 96, 210))
	swuL34 := addType("swu_l34", KindSWU, swuSpec("swu_l34", 6, 64, 210))
	swuL56 := addType("swu_l56", KindSWU, swuSpec("swu_l56", 6, 48, 180))

	// Threshold types: 1/2 share, 3/4 share, 5/6 share, FC layers unique.
	thresL12 := addType("thres_l12", KindThres, thresSpec("thres_l12", 100, 6, 2))
	thresL34 := addType("thres_l34", KindThres, thresSpec("thres_l34", 120, 6, 2))
	thresL56 := addType("thres_l56", KindThres, thresSpec("thres_l56", 120, 6, 2))
	thresFC7 := addType("thres_fc7", KindThres, thresSpec("thres_fc7", 50, 6, 1))
	thresFC8 := addType("thres_fc8", KindThres, thresSpec("thres_fc8", 45, 6, 1))
	thresFC9 := addType("thres_fc9", KindThres, thresSpec("thres_fc9", 40, 6, 1))

	// Pools after layers 2 and 4 share a configuration.
	pool := addType("pool", KindPool, poolSpec("pool", 180))

	// Stream glue: FIFOs and data width converters.
	fifoStream := addType("fifo_stream", KindFIFO, fifoSpec("fifo_stream", 8, 64))    // x4
	fifoDeep := addType("fifo_deep", KindFIFO, fifoSpec("fifo_deep", 8, 128))         // x3
	fifoShallow := addType("fifo_shallow", KindFIFO, fifoSpec("fifo_shallow", 4, 32)) // x3
	fifoWide := addType("fifo_wide", KindFIFO, fifoSpec("fifo_wide", 16, 64))         // x2
	dwcWord := addType("dwc_word", KindDWC, dwcSpec("dwc_word", 40))                  // x4
	dwcHalf := addType("dwc_half", KindDWC, dwcSpec("dwc_half", 28))                  // x3
	dwcIn := addType("dwc_in", KindDWC, dwcSpec("dwc_in", 36))                        // x2

	// Two more paired glue types (x2 each).
	dwcPair := addType("dwc_pair", KindDWC, dwcSpec("dwc_pair", 34))
	fifoPair := addType("fifo_pair", KindFIFO, fifoSpec("fifo_pair", 8, 48))

	// Remaining unique glue blocks (single instance each): input/output
	// adapters and per-layer spares, bringing the unique-type total to 74.
	singles := []int{
		addType("dwc_out", KindDWC, dwcSpec("dwc_out", 10)),
		addType("fifo_in", KindFIFO, fifoSpec("fifo_in", 8, 96)),
		addType("fifo_out", KindFIFO, fifoSpec("fifo_out", 2, 16)),
		addType("pad_1", KindDWC, dwcSpec("pad_1", 8)),
		addType("pad_2", KindDWC, dwcSpec("pad_2", 6)),
		addType("pool_final", KindPool, poolSpec("pool_final", 110)),
		addType("swu_fc", KindSWU, swuSpec("swu_fc", 2, 32, 60)),
		addType("dwc_fc7", KindDWC, dwcSpec("dwc_fc7", 9)),
		addType("dwc_fc8", KindDWC, dwcSpec("dwc_fc8", 7)),
		addType("fifo_fc", KindFIFO, fifoSpec("fifo_fc", 8, 80)),
		addType("label_sel", KindThres, thresSpec("label_sel", 80, 7, 2)),
		addType("dwc_top", KindDWC, dwcSpec("dwc_top", 11)),
		addType("fifo_top", KindFIFO, fifoSpec("fifo_top", 2, 16)),
		addType("pad_top", KindDWC, dwcSpec("pad_top", 8)),
		addType("dwc_tail", KindDWC, dwcSpec("dwc_tail", 10)),
		addType("fifo_tail", KindFIFO, fifoSpec("fifo_tail", 2, 16)),
		addType("pad_tail", KindDWC, dwcSpec("pad_tail", 6)),
	}

	// ---- instances and connectivity ----
	layers := []struct {
		mvau      int
		nMVAU     int
		swu       int
		thres     int
		banks     []int
		poolAfter bool
		fifo      int
		dwc       int
		layer     int
	}{
		{mvauL12, 24, swu1, thresL12, []int{0, 1}, false, fifoStream, dwcIn, 1},
		{mvauL12, 24, swu2, thresL12, []int{2, 3}, true, fifoDeep, dwcWord, 2},
		{mvauL34, 10, swuL34, thresL34, []int{4, 5, 6}, false, fifoStream, dwcHalf, 3},
		{mvauL34, 10, swuL34, thresL34, []int{7, 8, 9}, true, fifoDeep, dwcWord, 4},
		{mvauL5, 4, swuL56, thresL56, []int{10, 11}, false, fifoShallow, dwcHalf, 5},
		{mvauL6, 4, swuL56, thresL56, []int{12, 13}, false, fifoStream, dwcWord, 6},
		{mvauFC7, 4, -1, thresFC7, []int{14, 15, 16, 17}, false, fifoWide, dwcIn, 7},
		{mvau18, 4, -1, thresFC8, []int{18, 19, 20, 21}, false, fifoDeep, dwcHalf, 8},
		{mvauFC9, 1, -1, thresFC9, []int{22, 23}, false, fifoShallow, dwcWord, 9},
	}

	prev := -1
	for _, l := range layers {
		// Optional sliding window feeding the MVAUs.
		head := prev
		if l.swu >= 0 {
			s := addInst(l.swu, l.layer)
			connect(head, s, 24)
			head = s
		}
		// Weight banks for this layer.
		var banks []int
		for _, b := range l.banks {
			banks = append(banks, addInst(weightType[b], l.layer))
		}
		// MVAUs fan out from the head; weights feed MVAUs round-robin
		// (both directions, so no bank is left dangling).
		th := addInst(l.thres, l.layer)
		var mvs []int
		for i := 0; i < l.nMVAU; i++ {
			mv := addInst(l.mvau, l.layer)
			mvs = append(mvs, mv)
			connect(head, mv, 24)
			connect(banks[i%len(banks)], mv, 64)
			connect(mv, th, 16)
		}
		for bi := l.nMVAU; bi < len(banks); bi++ {
			connect(banks[bi], mvs[bi%len(mvs)], 64)
		}
		tail := th
		if l.poolAfter {
			p := addInst(pool, l.layer)
			connect(tail, p, 16)
			tail = p
		}
		if l.fifo >= 0 {
			f := addInst(l.fifo, l.layer)
			connect(tail, f, 16)
			tail = f
		}
		if l.dwc >= 0 {
			c := addInst(l.dwc, l.layer)
			connect(tail, c, 16)
			tail = c
		}
		prev = tail
	}

	// Remaining weight banks (spares used by the FC interleave) and the
	// single-instance glue blocks attach along the stream.
	for b := 24; b < 30; b++ {
		w := addInst(weightType[b], 0)
		connect(w, prev, 32)
	}
	for _, ti := range singles {
		in := addInst(ti, 0)
		connect(prev, in, 16)
		prev = in
	}
	// Extra instances of the multi-use glue types to reach the published
	// instance counts (stream FIFOs and converters appear throughout).
	for _, ti := range []int{fifoStream, fifoShallow, dwcIn, fifoWide, dwcPair, dwcPair, fifoPair, fifoPair} {
		in := addInst(ti, 0)
		connect(prev, in, 16)
	}
	return d
}
