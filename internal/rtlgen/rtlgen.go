// Package rtlgen provides the parameterizable RTL generators of the
// paper's §VI-A. Each generator emits a Spec — a structural description of
// a module in terms of high-level components — that internal/synth
// elaborates into a primitive netlist.
//
// The generators deliberately target the corner cases the paper lists:
// register-dominated modules with many control sets and high fanin,
// register-free LUTRAM modules, carry-chain-heavy arithmetic, LFSR banks
// mixing all resource kinds, and a generic template (Fig. 6) that sweeps
// the remaining design space.
package rtlgen

import (
	"fmt"
	"math/rand"
)

// Component is one high-level building block of a Spec.
type Component interface {
	// Kind returns a short component kind name for reports.
	Kind() string
}

// ShiftRegs models banks of shift registers with parameterizable control
// sets and input fanin (the paper's first generator). With NoSRL set, a
// tool attribute prevents mapping the stages into SRL LUTs so the module
// is dominated by flip-flops.
type ShiftRegs struct {
	Count       int  // number of shift registers
	Length      int  // stages per register
	ControlSets int  // distinct control sets distributed over registers
	Fanin       int  // fanin of the LUT tree feeding each register
	NoSRL       bool // keep stages as FFs instead of SRL primitives
}

// Kind implements Component.
func (ShiftRegs) Kind() string { return "shiftregs" }

// LUTMemory models a distributed (or, when large, block) RAM with no
// registers at all (the paper's second generator).
type LUTMemory struct {
	Width int // data width in bits
	Depth int // number of words
	// ForceDistributed suppresses BRAM inference regardless of size
	// (FINN-style weight memories use distributed RAM).
	ForceDistributed bool
}

// Kind implements Component.
func (LUTMemory) Kind() string { return "lutmem" }

// bramBitThreshold is the capacity above which synthesis infers RAMB36
// instead of LUTRAM (mirrors the vendor ~readily inferring BRAM for deep
// memories).
const bramBitThreshold = 16 * 1024

// SumOfSquares models the paper's third generator: a carry-chain-heavy
// sum of squares with parameterizable data widths.
type SumOfSquares struct {
	Width int // operand width in bits
	Terms int // number of squared terms accumulated
}

// Kind implements Component.
func (SumOfSquares) Kind() string { return "sumsquares" }

// LFSRBank models the paper's fourth generator: multiple linear-feedback
// shift registers that mix FFs, LUTs, carry and shift-register resources.
type LFSRBank struct {
	Count    int  // number of LFSRs
	Width    int  // register width
	UseCarry bool // attach a carry-chain event counter per LFSR
	UseSRL   bool // add an SRL delay line per LFSR
}

// Kind implements Component.
func (LFSRBank) Kind() string { return "lfsrbank" }

// RandomLogic models an unstructured LUT cloud with a target size, fanin
// and depth; used by the template generator to fill the design space.
type RandomLogic struct {
	LUTs  int
	Fanin int   // average LUT fanin (2..6)
	Depth int   // combinational levels
	Seed  int64 // wiring seed
}

// Kind implements Component.
func (RandomLogic) Kind() string { return "randlogic" }

// Spec is one generated module: a named list of components.
type Spec struct {
	Name       string
	Components []Component
}

// Generator produces a family of Specs covering part of the design space.
type Generator interface {
	// Name identifies the generator family.
	Name() string
	// Generate returns n specs drawn with the given source.
	Generate(rng *rand.Rand, n int) []Spec
}

// --- concrete generator families -------------------------------------

// FFGenerator is the register-dominated family (§VI-A generator one).
type FFGenerator struct{}

// Name implements Generator.
func (FFGenerator) Name() string { return "ff" }

// Generate implements Generator.
func (FFGenerator) Generate(rng *rand.Rand, n int) []Spec {
	specs := make([]Spec, 0, n)
	for i := 0; i < n; i++ {
		count := 2 + rng.Intn(48)
		length := 4 + rng.Intn(60)
		cs := 1 + rng.Intn(min(count, 24))
		fanin := 1 + rng.Intn(24)
		specs = append(specs, Spec{
			Name: fmt.Sprintf("ff_%03d_c%d_l%d_cs%d_f%d", i, count, length, cs, fanin),
			Components: []Component{
				ShiftRegs{Count: count, Length: length, ControlSets: cs, Fanin: fanin, NoSRL: true},
			},
		})
	}
	return specs
}

// MemGenerator is the register-free LUTRAM family (generator two).
type MemGenerator struct{}

// Name implements Generator.
func (MemGenerator) Name() string { return "mem" }

// Generate implements Generator.
func (MemGenerator) Generate(rng *rand.Rand, n int) []Spec {
	specs := make([]Spec, 0, n)
	for i := 0; i < n; i++ {
		width := 1 + rng.Intn(64)
		depth := 16 << rng.Intn(7) // 16..1024
		specs = append(specs, Spec{
			Name: fmt.Sprintf("mem_%03d_w%d_d%d", i, width, depth),
			Components: []Component{
				LUTMemory{Width: width, Depth: depth},
			},
		})
	}
	return specs
}

// CarryGenerator is the carry-chain family (generator three).
type CarryGenerator struct{}

// Name implements Generator.
func (CarryGenerator) Name() string { return "carry" }

// Generate implements Generator.
func (CarryGenerator) Generate(rng *rand.Rand, n int) []Spec {
	specs := make([]Spec, 0, n)
	for i := 0; i < n; i++ {
		width := 4 + rng.Intn(44)
		terms := 1 + rng.Intn(12)
		specs = append(specs, Spec{
			Name: fmt.Sprintf("carry_%03d_w%d_t%d", i, width, terms),
			Components: []Component{
				SumOfSquares{Width: width, Terms: terms},
			},
		})
	}
	return specs
}

// LFSRGenerator is the mixed-resource LFSR family (generator four).
type LFSRGenerator struct{}

// Name implements Generator.
func (LFSRGenerator) Name() string { return "lfsr" }

// Generate implements Generator.
func (LFSRGenerator) Generate(rng *rand.Rand, n int) []Spec {
	specs := make([]Spec, 0, n)
	for i := 0; i < n; i++ {
		count := 1 + rng.Intn(24)
		width := 8 + rng.Intn(56)
		specs = append(specs, Spec{
			Name: fmt.Sprintf("lfsr_%03d_c%d_w%d", i, count, width),
			Components: []Component{
				LFSRBank{
					Count:    count,
					Width:    width,
					UseCarry: rng.Intn(2) == 0,
					UseSRL:   rng.Intn(2) == 0,
				},
			},
		})
	}
	return specs
}

// TemplateGenerator is the generic Fig. 6 family: every resource kind in
// one module with independently swept parameters, covering as much of the
// design space as possible.
type TemplateGenerator struct{}

// Name implements Generator.
func (TemplateGenerator) Name() string { return "template" }

// Generate implements Generator.
func (TemplateGenerator) Generate(rng *rand.Rand, n int) []Spec {
	specs := make([]Spec, 0, n)
	for i := 0; i < n; i++ {
		var comps []Component
		if rng.Intn(4) != 0 {
			comps = append(comps, ShiftRegs{
				Count:       1 + rng.Intn(24),
				Length:      2 + rng.Intn(30),
				ControlSets: 1 + rng.Intn(12),
				Fanin:       1 + rng.Intn(12),
				NoSRL:       rng.Intn(3) != 0,
			})
		}
		if rng.Intn(3) != 0 {
			// Sizes sweep up to ~4,800 LUTs so that, combined with the
			// other components, the largest modules reach the paper's
			// ~5,000-LUT ceiling (11% of the device).
			luts := 16 + rng.Intn(1200)
			if rng.Intn(3) == 0 {
				luts = 800 + rng.Intn(4000)
			}
			comps = append(comps, RandomLogic{
				LUTs:  luts,
				Fanin: 2 + rng.Intn(5),
				Depth: 2 + rng.Intn(10),
				Seed:  rng.Int63(),
			})
		}
		if rng.Intn(3) != 0 {
			comps = append(comps, SumOfSquares{
				Width: 4 + rng.Intn(28),
				Terms: 1 + rng.Intn(6),
			})
		}
		if rng.Intn(3) == 0 {
			comps = append(comps, LUTMemory{
				Width: 1 + rng.Intn(32),
				Depth: 16 << rng.Intn(6),
			})
		}
		if rng.Intn(4) == 0 {
			comps = append(comps, LFSRBank{
				Count:    1 + rng.Intn(8),
				Width:    8 + rng.Intn(24),
				UseCarry: rng.Intn(2) == 0,
				UseSRL:   rng.Intn(2) == 0,
			})
		}
		if len(comps) == 0 {
			comps = append(comps, RandomLogic{
				LUTs:  16 + rng.Intn(400),
				Fanin: 3,
				Depth: 3,
				Seed:  rng.Int63(),
			})
		}
		specs = append(specs, Spec{
			Name:       fmt.Sprintf("tmpl_%03d", i),
			Components: comps,
		})
	}
	return specs
}

// AllGenerators returns the full §VI-A generator suite.
func AllGenerators() []Generator {
	return []Generator{
		FFGenerator{},
		MemGenerator{},
		CarryGenerator{},
		LFSRGenerator{},
		TemplateGenerator{},
	}
}

// GenerateMix draws a dataset of total specs from all generator families
// with the paper's emphasis on the generic template family (which covers
// "as much of the design space as possible") while keeping each corner
// case represented.
func GenerateMix(rng *rand.Rand, total int) []Spec {
	gens := AllGenerators()
	// Template gets half the budget; the four corner-case families split
	// the rest evenly.
	perCorner := total / (2 * (len(gens) - 1))
	var specs []Spec
	for _, g := range gens[:len(gens)-1] {
		specs = append(specs, g.Generate(rng, perCorner)...)
	}
	specs = append(specs, gens[len(gens)-1].Generate(rng, total-len(specs))...)
	for i := range specs {
		specs[i].Name = fmt.Sprintf("%04d_%s", i, specs[i].Name)
	}
	return specs
}
