// Package cli holds the testable implementations of the command-line tools:
// each command's main() is a thin wrapper over a function here that takes an
// argument vector and an output writer, so the full flag-to-report paths are
// exercised by unit tests.
package cli

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"cmosopt/internal/circuit"
	"cmosopt/internal/core"
	"cmosopt/internal/design"
	"cmosopt/internal/device"
	"cmosopt/internal/netgen"
	"cmosopt/internal/obs"
	"cmosopt/internal/report"
	"cmosopt/internal/wiring"
)

// LoadCircuit resolves the shared -circuit/-bench flag pair: a built-in
// benchmark name or a netlist file (ISCAS .bench, or structural Verilog when
// the path ends in .v).
func LoadCircuit(name, benchPath string) (*circuit.Circuit, error) {
	switch {
	case name != "" && benchPath != "":
		return nil, fmt.Errorf("use either -circuit or -bench, not both")
	case benchPath != "":
		f, err := os.Open(benchPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if strings.HasSuffix(benchPath, ".v") {
			return circuit.ParseVerilog(benchPath, f)
		}
		return circuit.ParseBench(benchPath, f)
	case name != "":
		return netgen.LoadNamed(name)
	}
	return nil, fmt.Errorf("specify -circuit <name> or -bench <file>")
}

// LoadTech returns the default technology, optionally overridden by a
// parameter file.
func LoadTech(path string) (device.Tech, error) {
	tech := device.Default350()
	if path == "" {
		return tech, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return tech, err
	}
	defer f.Close()
	return device.ParseTech(tech, f)
}

// LowPower implements cmd/lowpower: optimize one circuit and print the
// design report. It returns an error for bad flags or infeasible problems.
func LowPower(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("lowpower", flag.ContinueOnError)
	fs.SetOutput(out)
	name := fs.String("circuit", "", "built-in benchmark name (s27, c17, s298, ...)")
	benchPath := fs.String("bench", "", "path to an ISCAS .bench netlist")
	mode := fs.String("mode", core.ModeJoint, "optimizer: "+strings.Join(core.Modes, ", "))
	nv := fs.Int("nv", 2, "distinct threshold voltages for -mode multivt")
	fc := fs.Float64("fc", 300e6, "required clock frequency (Hz)")
	skew := fs.Float64("skew", 0.95, "clock-skew derating b (0,1]")
	prob := fs.Float64("prob", 0.5, "input signal probability")
	act := fs.Float64("activity", 0.5, "input transition density per cycle")
	m := fs.Int("M", 12, "bisection steps per Procedure 2 loop")
	techPath := fs.String("tech", "", "technology parameter file")
	savePath := fs.String("save", "", "write the optimized design as JSON to this file")
	var of ObsFlags
	of.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	ct, err := LoadCircuit(*name, *benchPath)
	if err != nil {
		return err
	}
	tech, err := LoadTech(*techPath)
	if err != nil {
		return err
	}
	reg, err := of.Begin(out)
	if err != nil {
		return err
	}
	p, err := core.NewProblem(core.Spec{
		Circuit:      ct,
		Tech:         tech,
		Wiring:       wiring.Default350(),
		Fc:           *fc,
		Skew:         *skew,
		InputProb:    *prob,
		InputDensity: *act,
		Obs:          reg,
	})
	if err != nil {
		return err
	}
	opts := core.DefaultOptions()
	opts.M = *m

	res, err := p.Optimize(*mode, *nv, opts)
	if err != nil {
		return err
	}
	PrintResult(out, p, res)

	if *savePath != "" {
		f, err := os.Create(*savePath)
		if err != nil {
			return err
		}
		if err := design.Save(f, p.C, res.Assignment); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "design     saved to %s (verify with: go run ./cmd/verify -design %s ...)\n",
			*savePath, *savePath)
	}
	man := obs.NewManifest("lowpower")
	man.Circuit = p.C.Name
	man.Gates = p.C.NumLogic()
	man.FcHz = *fc
	man.Results = append(man.Results, ResultRecord(*mode, *fc, res))
	return of.End(man, reg)
}

// PrintResult renders the optimization report of cmd/lowpower.
func PrintResult(out io.Writer, p *core.Problem, res *core.Result) {
	stats := circuit.ComputeStats(p.C)
	fmt.Fprintf(out, "circuit    %s (%d gates, depth %d)\n", p.C.Name, stats.Gates, stats.Depth)
	fmt.Fprintf(out, "method     %s\n", res.Method)
	fmt.Fprintf(out, "feasible   %v (critical delay %s vs budget %s)\n",
		res.Feasible, report.Eng(res.CriticalDelay, "s"), report.Eng(p.CycleBudget(), "s"))
	if frac, low, high, dual := p.LowRailShare(res); dual {
		fmt.Fprintf(out, "Vdd        %s (high rail) + %s (low rail, %.0f%% of gates)\n",
			report.Eng(high, "V"), report.Eng(low, "V"), frac*100)
	} else {
		fmt.Fprintf(out, "Vdd        %s\n", report.Eng(res.Vdd, "V"))
	}
	for i, vt := range res.VtsValues {
		fmt.Fprintf(out, "Vt[%d]      %s\n", i, report.Eng(vt, "V"))
	}
	fmt.Fprintf(out, "static E   %s/cycle\n", report.Eng(res.Energy.Static, "J"))
	fmt.Fprintf(out, "dynamic E  %s/cycle\n", report.Eng(res.Energy.Dynamic, "J"))
	fmt.Fprintf(out, "total E    %s/cycle\n", report.Eng(res.Energy.Total(), "J"))
	fmt.Fprintf(out, "power      %s at %s\n", report.Eng(p.Eval.AvgPower(res.Energy), "W"), report.Eng(p.Fc, "Hz"))
	fmt.Fprintf(out, "evals      %d full-circuit evaluation equivalents\n", res.Evaluations)

	minW, maxW, sumW, n := 1e18, 0.0, 0.0, 0
	for i := range p.C.Gates {
		if !p.C.Gates[i].IsLogic() {
			continue
		}
		w := res.Assignment.W[i]
		if w < minW {
			minW = w
		}
		if w > maxW {
			maxW = w
		}
		sumW += w
		n++
	}
	fmt.Fprintf(out, "widths     min %.1f / avg %.1f / max %.1f (x min feature width)\n", minW, sumW/float64(n), maxW)

	edges := 0
	for i := range p.C.Gates {
		edges += p.C.Gates[i].NumFanout()
	}
	fmt.Fprintf(out, "placement  ~%s die edge, ~%s total routed wire (Rent estimate)\n",
		report.Eng(p.Wire.DieEdge(), "m"), report.Eng(p.Wire.TotalWireEstimate(edges), "m"))

	bb := device.DefaultBodyBias()
	if plan, err := device.PlanTubBiases(bb, bb, res.VtsValues, 5); err == nil {
		for i := range res.VtsValues {
			fmt.Fprintf(out, "tub bias   Vt=%s: substrate %s below GND, n-well %s above Vdd\n",
				report.Eng(res.VtsValues[i], "V"),
				report.Eng(plan.VSubstrate[i], "V"),
				report.Eng(plan.VNWell[i], "V"))
		}
	} else {
		fmt.Fprintf(out, "tub bias   not realizable from natural devices: %v\n", err)
	}
}

// ECO implements cmd/eco: transplant a saved design onto an edited netlist
// (warm start), re-solving only what the edit disturbed, and save the
// updated design.
func ECO(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("eco", flag.ContinueOnError)
	fs.SetOutput(out)
	designPath := fs.String("design", "", "previous design JSON (required)")
	prevBench := fs.String("prev", "", "previous netlist file (required)")
	name := fs.String("circuit", "", "edited built-in benchmark name")
	benchPath := fs.String("bench", "", "edited netlist file")
	fc := fs.Float64("fc", 300e6, "required clock frequency (Hz)")
	skew := fs.Float64("skew", 0.95, "clock-skew derating b (0,1]")
	prob := fs.Float64("prob", 0.5, "input signal probability")
	act := fs.Float64("activity", 0.5, "input transition density per cycle")
	techPath := fs.String("tech", "", "technology parameter file")
	savePath := fs.String("save", "", "write the updated design JSON here")
	var of ObsFlags
	of.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *designPath == "" || *prevBench == "" {
		return fmt.Errorf("-design and -prev are required")
	}
	prevC, err := LoadCircuit("", *prevBench)
	if err != nil {
		return err
	}
	if prevC.IsSequential() {
		if prevC, err = prevC.Combinational(); err != nil {
			return err
		}
	}
	editedC, err := LoadCircuit(*name, *benchPath)
	if err != nil {
		return err
	}
	tech, err := LoadTech(*techPath)
	if err != nil {
		return err
	}
	reg, err := of.Begin(out)
	if err != nil {
		return err
	}
	p, err := core.NewProblem(core.Spec{
		Circuit:      editedC,
		Tech:         tech,
		Wiring:       wiring.Default350(),
		Fc:           *fc,
		Skew:         *skew,
		InputProb:    *prob,
		InputDensity: *act,
		Obs:          reg,
	})
	if err != nil {
		return err
	}
	df, err := os.Open(*designPath)
	if err != nil {
		return err
	}
	prev, err := design.Load(df, prevC)
	df.Close()
	if err != nil {
		return err
	}
	res, reused, fast, err := p.WarmStart(prevC, prev, core.DefaultOptions())
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "reused     %d/%d gate sizings from the previous design\n", reused, p.C.NumLogic())
	if fast {
		fmt.Fprintln(out, "path       warm start (widths only)")
	} else {
		fmt.Fprintln(out, "path       full re-optimization (warm start could not close timing)")
	}
	PrintResult(out, p, res)
	if *savePath != "" {
		f, err := os.Create(*savePath)
		if err != nil {
			return err
		}
		if err := design.Save(f, p.C, res.Assignment); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "design     saved to %s\n", *savePath)
	}
	man := obs.NewManifest("eco")
	man.Circuit = p.C.Name
	man.Gates = p.C.NumLogic()
	man.FcHz = *fc
	man.Results = append(man.Results, ResultRecord("eco", *fc, res))
	return of.End(man, reg)
}

// Verify implements cmd/verify: load a saved design and re-check it.
// A timing failure returns an error (the command maps it to exit status 1).
func Verify(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("verify", flag.ContinueOnError)
	fs.SetOutput(out)
	designPath := fs.String("design", "", "saved design JSON (required)")
	name := fs.String("circuit", "", "built-in benchmark name")
	benchPath := fs.String("bench", "", "path to an ISCAS .bench netlist")
	fc := fs.Float64("fc", 300e6, "required clock frequency (Hz)")
	skew := fs.Float64("skew", 0.95, "clock-skew derating b (0,1]")
	prob := fs.Float64("prob", 0.5, "input signal probability")
	act := fs.Float64("activity", 0.5, "input transition density per cycle")
	techPath := fs.String("tech", "", "technology parameter file")
	var of ObsFlags
	of.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *designPath == "" {
		return fmt.Errorf("-design is required")
	}
	ct, err := LoadCircuit(*name, *benchPath)
	if err != nil {
		return err
	}
	tech, err := LoadTech(*techPath)
	if err != nil {
		return err
	}
	reg, err := of.Begin(out)
	if err != nil {
		return err
	}
	p, err := core.NewProblem(core.Spec{
		Circuit:      ct,
		Tech:         tech,
		Wiring:       wiring.Default350(),
		Fc:           *fc,
		Skew:         *skew,
		InputProb:    *prob,
		InputDensity: *act,
		Obs:          reg,
	})
	if err != nil {
		return err
	}

	df, err := os.Open(*designPath)
	if err != nil {
		return err
	}
	a, err := design.Load(df, p.C)
	df.Close()
	if err != nil {
		return err
	}
	if err := a.Validate(&p.Tech, p.C.N()); err != nil {
		return fmt.Errorf("design violates technology limits: %v", err)
	}

	cd := p.Eval.CriticalDelay(a)
	e := p.Eval.Energy(a)
	budget := p.CycleBudget()
	fmt.Fprintf(out, "circuit        %s (%d gates)\n", p.C.Name, p.C.NumLogic())
	fmt.Fprintf(out, "critical delay %s (budget %s)\n", report.Eng(cd, "s"), report.Eng(budget, "s"))
	fmt.Fprintf(out, "static energy  %s/cycle\n", report.Eng(e.Static, "J"))
	fmt.Fprintf(out, "dynamic energy %s/cycle\n", report.Eng(e.Dynamic, "J"))
	fmt.Fprintf(out, "total energy   %s/cycle (%s at %s)\n",
		report.Eng(e.Total(), "J"), report.Eng(p.Eval.AvgPower(e), "W"), report.Eng(p.Fc, "Hz"))
	p.Eval.FlushObs()
	man := obs.NewManifest("verify")
	man.Circuit = p.C.Name
	man.Gates = p.C.NumLogic()
	man.FcHz = *fc
	man.Results = append(man.Results, obs.ResultRecord{
		Label:          "verify",
		Vdd:            a.Vdd,
		EnergyStatic:   e.Static,
		EnergyDynamic:  e.Dynamic,
		EnergyTotal:    e.Total(),
		CriticalDelayS: cd,
		Feasible:       cd <= budget,
	})
	if err := of.End(man, reg); err != nil {
		return err
	}
	if cd <= budget {
		fmt.Fprintln(out, "TIMING PASS")
		return nil
	}
	fmt.Fprintf(out, "TIMING FAIL: exceeds budget by %s\n", report.Eng(cd-budget, "s"))
	return fmt.Errorf("timing check failed")
}
