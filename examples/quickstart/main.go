// Quickstart: build a small CMOS network with the circuit Builder, then run
// the paper's joint (Vdd, Vt, widths) optimization against the conventional
// fixed-Vt baseline and print the energy breakdown.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"cmosopt/internal/circuit"
	"cmosopt/internal/core"
	"cmosopt/internal/device"
	"cmosopt/internal/report"
	"cmosopt/internal/wiring"
)

func main() {
	log.SetFlags(0)

	// A 4-bit ripple-carry adder built gate by gate: a realistic little
	// random-logic network with reconvergence and a long carry chain.
	b := circuit.NewBuilder("adder4")
	var carry int
	for i := 0; i < 4; i++ {
		ai := b.Input(fmt.Sprintf("a%d", i))
		bi := b.Input(fmt.Sprintf("b%d", i))
		axb := b.Gate(circuit.Xor, fmt.Sprintf("axb%d", i), ai, bi)
		if i == 0 {
			sum := b.Gate(circuit.Buf, "sum0", axb)
			b.Output(sum)
			carry = b.Gate(circuit.And, "c0", ai, bi)
			continue
		}
		sum := b.Gate(circuit.Xor, fmt.Sprintf("sum%d", i), axb, carry)
		b.Output(sum)
		g1 := b.Gate(circuit.And, fmt.Sprintf("g1_%d", i), axb, carry)
		g2 := b.Gate(circuit.And, fmt.Sprintf("g2_%d", i), ai, bi)
		carry = b.Gate(circuit.Or, fmt.Sprintf("c%d", i), g1, g2)
	}
	b.Output(carry)
	c, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(circuit.ComputeStats(c))

	// The paper's "Given": clock target, technology, activity profile.
	p, err := core.NewProblem(core.Spec{
		Circuit:      c,
		Tech:         device.Default350(),
		Wiring:       wiring.Default350(),
		Fc:           200e6,
		Skew:         0.95,
		InputProb:    0.5,
		InputDensity: 0.3,
	})
	if err != nil {
		log.Fatal(err)
	}

	base, err := p.OptimizeBaseline(core.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	joint, err := p.OptimizeJoint(core.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}

	show := func(name string, r *core.Result) {
		fmt.Printf("%-9s Vdd=%-8s Vt=%-8s  static=%-10s dynamic=%-10s total=%-10s delay=%s\n",
			name,
			report.Eng(r.Vdd, "V"), report.Eng(r.VtsValues[0], "V"),
			report.Eng(r.Energy.Static, "J"), report.Eng(r.Energy.Dynamic, "J"),
			report.Eng(r.Energy.Total(), "J"), report.Eng(r.CriticalDelay, "s"))
	}
	show(core.ModeBaseline, base)
	show(core.ModeJoint, joint)
	fmt.Printf("joint optimization saves %.1fx at the same %s clock\n",
		joint.Savings(base), report.Eng(p.Fc, "Hz"))
}
