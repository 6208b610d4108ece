package core

import (
	"testing"

	"cmosopt/internal/netgen"
)

// TestProcedure2CounterPins pins the work one OptimizeJoint call does on the
// BenchmarkProcedure2 set-up (300 MHz, skew 0.95, activity 0.5,
// DefaultOptions) by equality. The counts are deterministic, so any change
// names the layer that moved: circuit-evals and full sweeps the optimizer's
// search, width probes the closed-form width solve, coefficient misses the
// engine's device-coefficient cache. A change that moves one on purpose
// updates it here and says why.
func TestProcedure2CounterPins(t *testing.T) {
	type pins struct {
		evals                  int
		sweeps, probes, misses int64
	}
	for _, tc := range []struct {
		name string
		want pins
	}{
		{"s298", pins{2450, 146, 206314, 144}},
		{"s510", pins{2799, 146, 438208, 144}},
	} {
		c, err := netgen.Profile(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		p := problemFor(t, c, 0.5)
		before := *p.Eval.Metrics()
		res, err := p.OptimizeJoint(DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		m := *p.Eval.Metrics()
		got := pins{
			evals:  res.Evaluations,
			sweeps: m.FullDelaySweeps - before.FullDelaySweeps,
			probes: m.WidthProbes - before.WidthProbes,
			misses: m.CoeffMisses - before.CoeffMisses,
		}
		t.Logf("%s: %+v", tc.name, got)
		if got != tc.want {
			t.Errorf("%s: counters %+v, pinned %+v", tc.name, got, tc.want)
		}
	}
}
