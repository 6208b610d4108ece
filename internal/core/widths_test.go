package core

import (
	"math"
	"testing"

	"cmosopt/internal/design"
	"cmosopt/internal/netgen"
	"cmosopt/internal/optimize"
)

// TestWidthFitMatchesBisectionOnSuite checks the width solver's closed-form
// search against plain bisection on real gate delay curves: every logic gate
// of every suite profile, at a grid of operating points, at both the starting
// and the solved widths, for the gate's search target, the unreachable
// branch's relaxed target and targets spread across the gate's delay range.
// The widths must be bit-identical and the fit must never fall back.
func TestWidthFitMatchesBisectionOnSuite(t *testing.T) {
	opts := DefaultOptions()
	for _, name := range netgen.SuiteNames() {
		c, err := netgen.Profile(name)
		if err != nil {
			t.Fatal(err)
		}
		p := problemFor(t, c, 0.3)
		wRange := optimize.Range{Lo: p.Tech.WMin, Hi: p.Tech.WMax}
		var searches, fallbacks int
		check := func(a *design.Assignment) {
			td := append([]float64(nil), p.Eval.Delays(a)...)
			for _, id := range p.logicIDs {
				maxIn := 0.0
				for _, f := range c.Gate(id).Fanin {
					maxIn = max(maxIn, td[f])
				}
				probe := func(w float64) float64 { return p.Eval.ProbeWidth(id, a, w, maxIn) }
				dHi, dLo := probe(wRange.Hi), probe(wRange.Lo)
				targets := []float64{p.Budgets.TMax[id] * 0.97, dHi * 1.1}
				for _, u := range []float64{0.001, 0.2, 0.5, 0.9} {
					targets = append(targets, dHi+u*(dLo-dHi))
				}
				for _, target := range targets {
					wantW, wantOK := optimize.MinSatisfying(wRange, opts.M, func(w float64) bool { return probe(w) <= target })
					gotW, gotOK, fellBack := optimize.MinBelowHyperbolic(wRange, opts.M, probe, dHi, target)
					searches++
					if fellBack {
						fallbacks++
					}
					if gotOK != wantOK || math.Float64bits(gotW) != math.Float64bits(wantW) {
						t.Fatalf("%s gate %d target %g: fit (%v, %v), bisection (%v, %v)",
							name, id, target, gotW, gotOK, wantW, wantOK)
					}
				}
			}
		}
		for _, vdd := range []float64{0.4, 0.8, 1.6} {
			for _, vts := range []float64{0.12, 0.2, 0.3} {
				a := design.Uniform(c.N(), vdd, vts, p.Tech.WMin)
				check(a)
				p.solveWidths(a, opts.M, opts.WidthPasses)
				check(a)
			}
		}
		if fallbacks != 0 {
			t.Errorf("%s: %d of %d width fits fell back to bisection", name, fallbacks, searches)
		}
	}
}

// TestWidthProbesPerGatePerPass pins the closed-form solver's cost as a
// deterministic count: two endpoint probes plus at most two final-cell checks
// per gate per pass. Passes run are recovered from the same meter: each pass
// makes one non-probe delay call per logic gate, and every other non-probe
// call belongs to a full sweep of numLogic calls.
func TestWidthProbesPerGatePerPass(t *testing.T) {
	for _, name := range []string{"s298", "s510"} {
		c, err := netgen.Profile(name)
		if err != nil {
			t.Fatal(err)
		}
		p := problemFor(t, c, 0.5)
		before := *p.Eval.Metrics()
		if _, err := p.OptimizeJoint(DefaultOptions()); err != nil {
			t.Fatal(err)
		}
		m := *p.Eval.Metrics()
		probes := m.WidthProbes - before.WidthProbes
		plain := m.GateDelayCalls - before.GateDelayCalls - probes
		sweeps := m.FullDelaySweeps - before.FullDelaySweeps
		n := int64(len(p.logicIDs))
		if plain%n != 0 {
			t.Fatalf("%s: %d non-probe delay calls is not a whole number of %d-gate sweeps", name, plain, n)
		}
		passes := plain/n - sweeps
		if passes <= 0 {
			t.Fatalf("%s: derived %d width passes", name, passes)
		}
		if fb := m.WidthFitFallbacks - before.WidthFitFallbacks; fb != 0 {
			t.Errorf("%s: %d width fits fell back to bisection", name, fb)
		}
		if r := float64(probes) / float64(n*passes); r > 4 {
			t.Errorf("%s: %.2f width probes per gate per pass, want ≤ 4", name, r)
		}
	}
}
