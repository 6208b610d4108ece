// ISCAS netlist example: parse a sequential ISCAS'89 .bench netlist (the
// genuine s27, or any file given on the command line), cut its flip-flops to
// get the register-to-register combinational network, and run the full
// optimization flow on it.
//
//	go run ./examples/iscas              # embedded genuine s27
//	go run ./examples/iscas mydesign.bench
package main

import (
	"fmt"
	"log"
	"os"

	"cmosopt/internal/circuit"
	"cmosopt/internal/core"
	"cmosopt/internal/device"
	"cmosopt/internal/netgen"
	"cmosopt/internal/report"
	"cmosopt/internal/wiring"
)

func main() {
	log.SetFlags(0)

	var c *circuit.Circuit
	if len(os.Args) > 1 {
		f, err := os.Open(os.Args[1])
		if err != nil {
			log.Fatal(err)
		}
		c, err = circuit.ParseBench(os.Args[1], f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
	} else {
		c = netgen.S27()
	}

	fmt.Println("raw netlist:     ", circuit.ComputeStats(c))
	comb, err := c.Combinational()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("after DFF cut:   ", circuit.ComputeStats(comb))

	p, err := core.NewProblem(core.Spec{
		Circuit:      c, // NewProblem cuts DFFs itself; passing raw is fine
		Tech:         device.Default350(),
		Wiring:       wiring.Default350(),
		Fc:           300e6,
		Skew:         0.95,
		InputProb:    0.5,
		InputDensity: 0.3,
	})
	if err != nil {
		log.Fatal(err)
	}

	for _, mode := range []string{core.ModeBaseline, core.ModeJoint} {
		res, err := p.Optimize(mode, 0, core.DefaultOptions())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s: total %-9s (static %-9s dynamic %-9s) Vdd %-7s Vt %-7s delay %s\n",
			mode,
			report.Eng(res.Energy.Total(), "J"),
			report.Eng(res.Energy.Static, "J"),
			report.Eng(res.Energy.Dynamic, "J"),
			report.Eng(res.Vdd, "V"),
			report.Eng(res.VtsValues[0], "V"),
			report.Eng(res.CriticalDelay, "s"))
	}

	// Show the critical path of the optimized design by gate name.
	joint, err := p.OptimizeJoint(core.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	path, delay := p.Eval.CriticalPath(joint.Assignment)
	fmt.Printf("critical path (%s):", report.Eng(delay, "s"))
	for _, id := range path {
		fmt.Printf(" %s", p.C.Gate(id).Name)
	}
	fmt.Println()
}
