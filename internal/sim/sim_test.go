package sim

import (
	"math"
	"slices"
	"testing"

	"cmosopt/internal/activity"
	"cmosopt/internal/circuit"
	"cmosopt/internal/design"
	"cmosopt/internal/device"
	"cmosopt/internal/eval"
	"cmosopt/internal/netgen"
	"cmosopt/internal/wiring"
)

func setup(t *testing.T, c *circuit.Circuit) (*Simulator, *eval.Engine, *design.Assignment) {
	t.Helper()
	eng := engineFor(t, c)
	a := design.Uniform(c.N(), 1.0, 0.2, 2)
	s, err := New(c, eng.Delays(a))
	if err != nil {
		t.Fatal(err)
	}
	return s, eng, a
}

func engineFor(t *testing.T, c *circuit.Circuit) *eval.Engine {
	t.Helper()
	tech := device.Default350()
	act, err := activity.PropagateUniform(c, 0.5, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := wiring.New(wiring.Default350(), max(c.NumLogic(), 1))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := eval.New(c, &tech, act, wire, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func chain(t *testing.T, n int) *circuit.Circuit {
	t.Helper()
	b := circuit.NewBuilder("chain")
	prev := b.Input("in")
	for i := 0; i < n; i++ {
		prev = b.Gate(circuit.Not, "g"+string(rune('0'+i)), prev)
	}
	b.Output(prev)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewRejects(t *testing.T) {
	seq, _ := circuit.ParseBenchString("seq", "INPUT(a)\nOUTPUT(q)\nq = DFF(a)\n")
	if _, err := New(seq, make([]float64, seq.N())); err == nil {
		t.Error("sequential circuit accepted")
	}
	c := chain(t, 2)
	td := engineFor(t, c).Delays(design.Uniform(c.N(), 1, 0.2, 2))
	if _, err := New(c, td[:1]); err == nil {
		t.Error("short delay slice accepted")
	}
}

// Engine.Delays returns engine scratch that the next engine call overwrites;
// the simulator must keep the delays it was built with.
func TestNewCopiesDelays(t *testing.T) {
	c := chain(t, 4)
	eng := engineFor(t, c)
	a := design.Uniform(c.N(), 1.0, 0.2, 2)
	want := slices.Clone(eng.Delays(a))
	s, err := New(c, eng.Delays(a))
	if err != nil {
		t.Fatal(err)
	}
	other := eng.Delays(design.Uniform(c.N(), 2.5, 0.4, 8))
	if slices.Equal(other, want) {
		t.Fatal("second assignment should change the delays")
	}
	if !slices.Equal(s.td, want) {
		t.Errorf("simulator delays %v changed to follow the engine, want %v", s.td, want)
	}
}

func TestEventPropagationMatchesSTA(t *testing.T) {
	// On an inverter chain every path is sensitized by any input edge: the
	// measured propagation equals the STA critical delay exactly.
	c := chain(t, 6)
	s, eng, a := setup(t, c)
	s.Settle()
	sta := eng.CriticalDelay(a)
	meas, err := s.PropagationDelay(c.PIs[0], !s.Value(c.PIs[0]), 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(meas-sta)/sta > 1e-9 {
		t.Errorf("measured %v vs STA %v", meas, sta)
	}
}

func TestMeasuredDelayNeverExceedsSTA(t *testing.T) {
	// On a random network, any single-input event settles within the STA
	// bound (STA is the max over all paths and input combinations).
	c, err := netgen.Generate(netgen.Config{Name: "r", Gates: 80, Depth: 8, PIs: 6, POs: 4}, 5)
	if err != nil {
		t.Fatal(err)
	}
	s, eng, a := setup(t, c)
	sta := eng.CriticalDelay(a)
	for trial := 0; trial < 20; trial++ {
		s.Settle()
		in := c.PIs[trial%len(c.PIs)]
		meas, err := s.PropagationDelay(in, !s.Value(in), 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		if meas > sta*(1+1e-9) {
			t.Fatalf("trial %d: measured %v exceeds STA bound %v", trial, meas, sta)
		}
	}
}

func TestGlitchVisibilityAndInertialFiltering(t *testing.T) {
	// Two reconvergent AND structures fed by a rising edge on `a`:
	//
	//	fast: yf = AND(a, NOT a)            — the (1,1) overlap lasts one
	//	      inverter delay, shorter than the AND's own delay: the pulse is
	//	      inertially filtered and yf never moves;
	//	slow: ys = AND(a, NOT(NOT(NOT a)))  — the overlap lasts three
	//	      inverter delays, longer than the AND delay: a real glitch (two
	//	      transitions) that zero-delay simulation would never show.
	b := circuit.NewBuilder("gl")
	a := b.Input("a")
	na := b.Gate(circuit.Not, "na", a)
	yf := b.Gate(circuit.And, "yf", a, na)
	n1 := b.Gate(circuit.Not, "n1", a)
	n2 := b.Gate(circuit.Not, "n2", n1)
	n3 := b.Gate(circuit.Not, "n3", n2)
	ys := b.Gate(circuit.And, "ys", a, n3)
	b.Output(yf)
	b.Output(ys)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s, _, _ := setup(t, c)
	s.Settle()
	if s.Value(yf) || s.Value(ys) {
		t.Fatal("AND(a, !a) structures should settle at 0")
	}
	if err := s.SetInput(c.PIs[0], true); err != nil {
		t.Fatal(err)
	}
	s.Run(1e-3)
	if s.Value(yf) || s.Value(ys) {
		t.Error("outputs must return to 0")
	}
	if got := s.trans[yf]; got != 0 {
		t.Errorf("fast path transitions = %d, want 0 (inertially filtered)", got)
	}
	if got := s.trans[ys]; got != 2 {
		t.Errorf("slow path transitions = %d, want 2 (visible glitch)", got)
	}
}

func TestTimedActivityAtLeastZeroDelay(t *testing.T) {
	// Glitching can only add transitions: the timed per-gate activity summed
	// over the network must be at least the zero-delay Monte-Carlo total
	// (same input process), and in reconvergent networks strictly larger.
	c, err := netgen.Generate(netgen.Config{Name: "act", Gates: 60, Depth: 6, PIs: 5, POs: 4}, 9)
	if err != nil {
		t.Fatal(err)
	}
	s, _, _ := setup(t, c)
	in := make(map[int]activity.InputSpec, len(c.PIs))
	for _, id := range c.PIs {
		in[id] = activity.InputSpec{Prob: 0.5, Density: 0.3}
	}
	const cycles = 20000
	timed, err := s.RandomVectorStats(in, cycles, 1e-6, 3)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := activity.MonteCarlo(c, in, cycles, 3)
	if err != nil {
		t.Fatal(err)
	}
	var timedTot, zeroTot float64
	for i := range c.Gates {
		if !c.Gates[i].IsLogic() {
			continue
		}
		timedTot += timed[i]
		zeroTot += mc.Density[i]
	}
	if timedTot < zeroTot*0.95 {
		t.Errorf("timed activity %v below zero-delay %v", timedTot, zeroTot)
	}
}

func TestSetInputErrors(t *testing.T) {
	c := chain(t, 2)
	s, _, _ := setup(t, c)
	if err := s.SetInput(c.GateByName("g0").ID, true); err == nil {
		t.Error("SetInput on a logic gate accepted")
	}
}

func TestRandomVectorStatsValidation(t *testing.T) {
	c := chain(t, 2)
	s, _, _ := setup(t, c)
	in := map[int]activity.InputSpec{c.PIs[0]: {Prob: 0.5, Density: 0.2}}
	if _, err := s.RandomVectorStats(in, 0, 1e-6, 1); err == nil {
		t.Error("zero cycles accepted")
	}
	if _, err := s.RandomVectorStats(in, 10, 0, 1); err == nil {
		t.Error("zero period accepted")
	}
	if _, err := s.RandomVectorStats(nil, 10, 1e-6, 1); err == nil {
		t.Error("missing specs accepted")
	}
}

func TestPowerTrace(t *testing.T) {
	c, err := netgen.Generate(netgen.Config{Name: "pt", Gates: 50, Depth: 6, PIs: 5, POs: 4}, 8)
	if err != nil {
		t.Fatal(err)
	}
	s, _, a := setup(t, c)
	in := make(map[int]activity.InputSpec, len(c.PIs))
	for _, id := range c.PIs {
		in[id] = activity.InputSpec{Prob: 0.5, Density: 0.3}
	}
	// Switched energy per transition: ½·C·V² with a crude per-gate C.
	se := make([]float64, c.N())
	for i := range se {
		se[i] = 0.5 * 10e-15 * a.Vdd * a.Vdd
	}
	const cycles = 4000
	trace, p2a, err := s.PowerTrace(in, se, cycles, 8, 1e-8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) != cycles*8 {
		t.Fatalf("trace length %d", len(trace))
	}
	var sum float64
	for _, p := range trace {
		if p < 0 {
			t.Fatal("negative power")
		}
		sum += p
	}
	if sum <= 0 {
		t.Fatal("no power recorded")
	}
	// Bursty event-driven switching must exceed its own average somewhere.
	if p2a <= 1 {
		t.Errorf("peak/avg = %v, want > 1", p2a)
	}
	// Cross-check the average against the transition counts: total energy
	// equals transitions x per-transition energy.
	var wantE float64
	for i := range c.Gates {
		wantE += float64(s.trans[i]) * se[i]
	}
	gotE := 0.0
	for _, p := range trace {
		gotE += p * (1e-8 / 8)
	}
	if wantE <= 0 || gotE/wantE < 0.95 || gotE/wantE > 1.05 {
		t.Errorf("trace energy %v vs transition energy %v", gotE, wantE)
	}
}

func TestPowerTraceValidation(t *testing.T) {
	c := chain(t, 2)
	s, _, _ := setup(t, c)
	in := map[int]activity.InputSpec{c.PIs[0]: {Prob: 0.5, Density: 0.2}}
	se := make([]float64, c.N())
	if _, _, err := s.PowerTrace(in, se, 0, 8, 1e-8, 1); err == nil {
		t.Error("zero cycles accepted")
	}
	if _, _, err := s.PowerTrace(in, se, 10, 8, 0, 1); err == nil {
		t.Error("zero period accepted")
	}
	if _, _, err := s.PowerTrace(in, se[:1], 10, 8, 1e-8, 1); err == nil {
		t.Error("mismatched energies accepted")
	}
	if _, _, err := s.PowerTrace(nil, se, 10, 8, 1e-8, 1); err == nil {
		t.Error("missing specs accepted")
	}
}
