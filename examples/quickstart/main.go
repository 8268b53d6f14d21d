// Quickstart: describe a module from the component library, find its
// minimal PBlock correction factor with the full placement/routing
// oracle, and implement it.
package main

import (
	"fmt"
	"log"

	"macroflow"
)

func main() {
	log.SetFlags(0)
	flow, err := macroflow.NewFlow("xc7z020")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("target: %+v\n\n", flow.Device())

	// A small stream-processing block: input registers with a few
	// control sets, a logic cloud, a carry-chain accumulator and a
	// coefficient memory.
	spec := macroflow.NewSpec("quickstart_block").
		ShiftRegs(8, 16, 3, 4).
		Logic(400, 4, 4).
		SumOfSquares(12, 2).
		Memory(8, 128)

	feats, err := flow.Features(spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("estimator features:")
	for _, k := range []string{"LUTs", "FFs", "Carry", "CtrlSets", "MaxFanout", "Density"} {
		fmt.Printf("  %-10s %.3f\n", k, feats[k])
	}

	// The tightest feasible PBlock, found by the paper's 0.02-step sweep.
	res, err := flow.ImplementBlock(spec, macroflow.MinSweepCF())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nminimal correction factor: %.2f (found in %d tool runs)\n", res.CF, res.ToolRuns)
	fmt.Printf("implementation: %s\n", res)

	// For contrast: the same module in a loose PBlock at RapidWright's
	// historical constant of 1.5.
	loose, err := flow.Implement(spec, 1.5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nat constant CF 1.50: %d slices (vs %d), irregularity %.3f (vs %.3f)\n",
		loose.UsedSlices, res.UsedSlices, loose.Irregularity, res.Irregularity)
}
