package core

import (
	"math"
	"strings"
	"testing"

	"cmosopt/internal/activity"
	"cmosopt/internal/circuit"
	"cmosopt/internal/device"
	"cmosopt/internal/netgen"
	"cmosopt/internal/wiring"
)

// specFor builds the standard experiment spec of the paper's tables.
func specFor(c *circuit.Circuit, act float64) Spec {
	return Spec{
		Circuit:      c,
		Tech:         device.Default350(),
		Wiring:       wiring.Default350(),
		Fc:           300e6,
		Skew:         0.95,
		InputProb:    0.5,
		InputDensity: act,
	}
}

func problemFor(t *testing.T, c *circuit.Circuit, act float64) *Problem {
	t.Helper()
	p, err := NewProblem(specFor(c, act))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func smallCircuit(t *testing.T) *circuit.Circuit {
	t.Helper()
	c, err := netgen.Generate(netgen.Config{Name: "small", Gates: 60, Depth: 6, PIs: 5, POs: 4}, 3)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func s298(t *testing.T) *circuit.Circuit {
	t.Helper()
	c, err := netgen.Profile("s298")
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewProblemValidation(t *testing.T) {
	c := smallCircuit(t)
	good := specFor(c, 0.5)
	mutations := []struct {
		name string
		mod  func(*Spec)
	}{
		{"nil circuit", func(s *Spec) { s.Circuit = nil }},
		{"zero fc", func(s *Spec) { s.Fc = 0 }},
		{"skew zero", func(s *Spec) { s.Skew = 0 }},
		{"skew above 1", func(s *Spec) { s.Skew = 1.5 }},
		{"bad tech", func(s *Spec) { s.Tech.KSat = -1 }},
		{"bad wiring", func(s *Spec) { s.Wiring.RentP = 0 }},
		{"bad activity", func(s *Spec) { s.InputDensity = 5 }},
		{"unknown input name", func(s *Spec) {
			s.Inputs = map[string]activity.InputSpec{"nope": {Prob: 0.5, Density: 0.1}}
		}},
	}
	for _, m := range mutations {
		s := good
		m.mod(&s)
		if _, err := NewProblem(s); err == nil {
			t.Errorf("%s: accepted", m.name)
		}
	}
}

func TestNewProblemCutsSequential(t *testing.T) {
	p := problemFor(t, netgen.S27(), 0.5)
	if p.C.IsSequential() {
		t.Error("problem circuit still sequential")
	}
	if len(p.C.PIs) != 7 { // 4 PIs + 3 flop outputs
		t.Errorf("cut s27 PIs = %d, want 7", len(p.C.PIs))
	}
}

func TestNewProblemPerInputOverride(t *testing.T) {
	c := smallCircuit(t)
	s := specFor(c, 0.2)
	s.Inputs = map[string]activity.InputSpec{"pi0": {Prob: 0.9, Density: 0.05}}
	p, err := NewProblem(s)
	if err != nil {
		t.Fatal(err)
	}
	id := p.C.GateByName("pi0").ID
	if p.Act.Prob[id] != 0.9 || p.Act.Density[id] != 0.05 {
		t.Errorf("override not applied: p=%v d=%v", p.Act.Prob[id], p.Act.Density[id])
	}
}

func TestBaselinePaperShapes(t *testing.T) {
	p := problemFor(t, s298(t), 0.5)
	res, err := p.OptimizeBaseline(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("baseline infeasible")
	}
	if len(res.VtsValues) != 1 || res.VtsValues[0] != 0.7 {
		t.Errorf("baseline thresholds %v, want [0.7]", res.VtsValues)
	}
	// At Vt = 0.7 leakage is negligible next to switching.
	if res.Energy.Static > res.Energy.Dynamic/100 {
		t.Errorf("baseline static %v not ≪ dynamic %v", res.Energy.Static, res.Energy.Dynamic)
	}
	if res.CriticalDelay > p.CycleBudget() {
		t.Errorf("critical delay %v exceeds budget %v", res.CriticalDelay, p.CycleBudget())
	}
}

func TestBaselineDeepCircuitPinsNearFullSupply(t *testing.T) {
	// The paper's Table 1 baseline "coincidentally returned Vdd values close
	// to 3.3 V": the benchmarks at the 300 MHz feasibility edge. In our
	// calibration the deep (depth-20) circuits are at that edge.
	c, err := netgen.Profile("s344")
	if err != nil {
		t.Fatal(err)
	}
	p := problemFor(t, c, 0.5)
	res, err := p.OptimizeBaseline(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Vdd < 2.8 {
		t.Errorf("deep-circuit baseline Vdd = %v, want near 3.3", res.Vdd)
	}
}

func TestBaselineFixedVddReference(t *testing.T) {
	p := problemFor(t, s298(t), 0.5)
	o := DefaultOptions()
	o.FixedVdd = 3.3
	ref, err := p.OptimizeBaseline(o)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Vdd != 3.3 {
		t.Errorf("reference Vdd = %v, want pinned 3.3", ref.Vdd)
	}
	if ref.Method != "baseline-fixed-vdd" {
		t.Errorf("method = %q", ref.Method)
	}
	free, err := p.OptimizeBaseline(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if free.Energy.Total() > ref.Energy.Total() {
		t.Error("free-Vdd baseline should not be worse than the pinned reference")
	}
	o.FixedVdd = 9
	if _, err := p.OptimizeBaseline(o); err == nil {
		t.Error("out-of-range FixedVdd accepted")
	}
}

func TestJointPaperShapes(t *testing.T) {
	p := problemFor(t, s298(t), 0.5)
	base, err := p.OptimizeBaseline(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	joint, err := p.OptimizeJoint(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !joint.Feasible {
		t.Fatal("joint infeasible")
	}
	// Headline: over an order of magnitude savings with no performance loss.
	if s := joint.Savings(base); s < 8 {
		t.Errorf("savings = %vx, want > 8x", s)
	}
	// Returned voltages land in (a slightly widened version of) the paper's
	// reported ranges: Vdd 0.6–1.2 V, Vt 0.13–0.19 V.
	if joint.Vdd < 0.35 || joint.Vdd > 1.35 {
		t.Errorf("joint Vdd = %v, paper reports 0.6–1.2 V", joint.Vdd)
	}
	vt := joint.VtsValues[0]
	if vt < 0.1 || vt > 0.3 {
		t.Errorf("joint Vt = %v, paper reports 0.13–0.19 V", vt)
	}
	// Static and dynamic components approximately equal at the optimum.
	r := joint.Energy.Static / joint.Energy.Dynamic
	if r < 0.1 || r > 10 {
		t.Errorf("static/dynamic = %v, want within an order of magnitude", r)
	}
	if joint.CriticalDelay > p.CycleBudget() {
		t.Errorf("joint critical delay %v exceeds budget %v", joint.CriticalDelay, p.CycleBudget())
	}
	// Accounting at probe granularity: M (Vdd) × M (Vts) width solves, each
	// costing per pass at most 5 gate delay calls per gate (the WMax and WMin
	// probes, two final-cell checks of the closed-form fit, the final delay;
	// the unreachable-budget branch reuses the WMax probe) and one full
	// verification sweep, plus M+2 probes of plain bisection for every fit
	// that fell back — all in full-circuit-evaluation equivalents.
	const M, passes = 12, 4
	fallbacks := p.Eval.Metrics().WidthFitFallbacks
	bound := M*M*(passes*5+1) + int(math.Ceil(float64(fallbacks*(M+2))/float64(p.C.NumLogic())))
	if joint.Evaluations > bound {
		t.Errorf("evaluations %d exceed probe bound %d (%d fit fallbacks)", joint.Evaluations, bound, fallbacks)
	}
}

func TestSavingsIncreaseWithActivity(t *testing.T) {
	c := s298(t)
	sav := func(act float64) float64 {
		p := problemFor(t, c, act)
		base, err := p.OptimizeBaseline(DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		joint, err := p.OptimizeJoint(DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		return joint.Savings(base)
	}
	lo, hi := sav(0.1), sav(0.5)
	if hi <= lo {
		t.Errorf("savings should grow with activity: a=0.1 → %v, a=0.5 → %v", lo, hi)
	}
}

func TestJointRejectsFixedVt(t *testing.T) {
	p := problemFor(t, smallCircuit(t), 0.5)
	o := DefaultOptions()
	o.FixedVt = 0.7
	if _, err := p.OptimizeJoint(o); err == nil {
		t.Error("OptimizeJoint accepted FixedVt")
	}
}

func TestBaselineFixedVtRange(t *testing.T) {
	p := problemFor(t, smallCircuit(t), 0.5)
	o := DefaultOptions()
	o.FixedVt = 2.0
	if _, err := p.OptimizeBaseline(o); err == nil {
		t.Error("out-of-range FixedVt accepted")
	}
}

func TestOptionsValidation(t *testing.T) {
	p := problemFor(t, smallCircuit(t), 0.5)
	bad := []Options{
		{M: -1},
		{M: 100},
		{M: 8, WidthPasses: 40},
		{M: 8, WidthPasses: 2, VtTimingFactor: 0.5},
		{M: 8, WidthPasses: 2, VtPowerFactor: 1.5},
	}
	for i, o := range bad {
		if _, err := p.OptimizeJoint(o); err == nil {
			t.Errorf("options %d accepted", i)
		}
	}
}

func TestInfeasibleFrequencyReported(t *testing.T) {
	s := specFor(s298(t), 0.5)
	s.Fc = 5e9 // 5 GHz in 0.35 µm: impossible
	p, err := NewProblem(s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.OptimizeJoint(DefaultOptions()); err == nil {
		t.Error("joint at 5 GHz should fail")
	}
	if _, err := p.OptimizeBaseline(DefaultOptions()); err == nil {
		t.Error("baseline at 5 GHz should fail")
	}
}

func TestJointNeverWorseThanBaseline(t *testing.T) {
	p := problemFor(t, smallCircuit(t), 0.3)
	base, err := p.OptimizeBaseline(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	joint, err := p.OptimizeJoint(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if joint.Energy.Total() > base.Energy.Total() {
		t.Errorf("joint %v worse than baseline %v", joint.Energy.Total(), base.Energy.Total())
	}
}

func TestMultiVtAtLeastAsGood(t *testing.T) {
	p := problemFor(t, s298(t), 0.5)
	joint, err := p.OptimizeJoint(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	mv, err := p.OptimizeMultiVt(2, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !mv.Feasible {
		t.Fatal("multi-Vt result infeasible")
	}
	if mv.Energy.Total() > joint.Energy.Total()*(1+1e-9) {
		t.Errorf("multi-Vt %v worse than single-Vt %v", mv.Energy.Total(), joint.Energy.Total())
	}
	if len(mv.VtsValues) > 2 {
		t.Errorf("multi-Vt used %d distinct thresholds, budget was 2", len(mv.VtsValues))
	}
	if mv.CriticalDelay > p.CycleBudget() {
		t.Error("multi-Vt violates cycle time")
	}
}

func TestMultiVtNvOne(t *testing.T) {
	p := problemFor(t, smallCircuit(t), 0.3)
	mv, err := p.OptimizeMultiVt(1, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if mv.Method != "joint" {
		t.Errorf("nv=1 should reduce to the joint optimizer, got %q", mv.Method)
	}
	if _, err := p.OptimizeMultiVt(0, DefaultOptions()); err == nil {
		t.Error("nv=0 accepted")
	}
	if _, err := p.OptimizeMultiVt(9, DefaultOptions()); err == nil {
		t.Error("nv=9 accepted")
	}
}

func TestAnnealFeasibleButNoBetterThanHeuristic(t *testing.T) {
	p := problemFor(t, smallCircuit(t), 0.5)
	joint, err := p.OptimizeJoint(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ao := DefaultAnnealOptions()
	ao.StepsPerPass = 800 // keep the test fast; §5's conclusion holds anyway
	sa, err := p.OptimizeAnneal(ao)
	if err != nil {
		t.Fatal(err)
	}
	if !sa.Feasible {
		t.Fatal("annealing found no feasible state")
	}
	if sa.CriticalDelay > p.CycleBudget() {
		t.Error("anneal result violates cycle time")
	}
	// The paper's §5 finding: annealing does not beat the heuristic.
	if sa.Energy.Total() < joint.Energy.Total()*0.95 {
		t.Errorf("anneal %v beat the heuristic %v by >5%%; paper (and schedule sizing) say it should not",
			sa.Energy.Total(), joint.Energy.Total())
	}
}

func TestVariationStudyShape(t *testing.T) {
	p := problemFor(t, smallCircuit(t), 0.5)
	base, err := p.OptimizeBaseline(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	pts, err := p.VariationStudy([]float64{0, 0.1, 0.2, 0.3}, DefaultOptions(), base)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("got %d points", len(pts))
	}
	for i, pt := range pts {
		if !pt.Feasible {
			t.Fatalf("point %d infeasible", i)
		}
		if pt.Savings <= 1 {
			t.Errorf("tol %v: savings %v should stay > 1", pt.Tol, pt.Savings)
		}
	}
	// Figure 2(a): savings shrink as the tolerated variation grows.
	if pts[len(pts)-1].Savings >= pts[0].Savings {
		t.Errorf("savings should fall with Vt tolerance: %v → %v",
			pts[0].Savings, pts[len(pts)-1].Savings)
	}
	if _, err := p.VariationStudy([]float64{-0.1}, DefaultOptions(), base); err == nil {
		t.Error("negative tolerance accepted")
	}
	if _, err := p.VariationStudy([]float64{0.1}, DefaultOptions(), nil); err == nil {
		t.Error("nil baseline accepted")
	}
}

func TestSlackStudyShape(t *testing.T) {
	spec := specFor(smallCircuit(t), 0.5)
	pts, err := SlackStudy(spec, []float64{0.7, 0.95}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("got %d points", len(pts))
	}
	for _, pt := range pts {
		if !pt.Feasible {
			t.Fatalf("skew %v infeasible", pt.Skew)
		}
	}
	// Figure 2(b): more available cycle time → larger savings.
	if pts[1].Savings <= pts[0].Savings*0.9 {
		t.Errorf("savings should not shrink with more slack: b=0.7 → %v, b=0.95 → %v",
			pts[0].Savings, pts[1].Savings)
	}
}

func TestResultSavingsDegenerate(t *testing.T) {
	a := &Result{}
	b := &Result{}
	b.Energy.Dynamic = 1
	if s := a.Savings(b); !math.IsInf(s, 1) {
		t.Errorf("zero-energy savings = %v, want +Inf", s)
	}
}

func TestEvaluationCounterMonotone(t *testing.T) {
	p := problemFor(t, smallCircuit(t), 0.3)
	before := p.Eval.FullEvalEquivalents()
	if _, err := p.OptimizeBaseline(DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if p.Eval.FullEvalEquivalents() <= before {
		t.Error("evaluation counter did not advance")
	}
}

func TestTechnologyScalingImprovesEnergy(t *testing.T) {
	// The same circuit at the scaled node (0.25 µm): smaller capacitances
	// and better drive must yield a lower-energy joint optimum at the same
	// clock — the cross-node view of the paper's process-design application.
	run := func(tech device.Tech) float64 {
		s := specFor(s298(t), 0.5)
		s.Tech = tech
		p, err := NewProblem(s)
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.OptimizeJoint(DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if !res.Feasible {
			t.Fatalf("%s: infeasible", tech.Name)
		}
		return res.Energy.Total()
	}
	e350 := run(device.Default350())
	e250 := run(device.Default250())
	if e250 >= e350 {
		t.Errorf("0.25 µm optimum %v not below 0.35 µm %v", e250, e350)
	}
}

func TestColdOperationLowersOptimalThreshold(t *testing.T) {
	// Cooling collapses leakage, so the joint optimum can afford a lower
	// threshold (or at least no higher) and less total energy.
	run := func(tempK float64) *Result {
		s := specFor(s298(t), 0.5)
		tech, err := s.Tech.AtTemperature(tempK)
		if err != nil {
			t.Fatal(err)
		}
		s.Tech = tech
		p, err := NewProblem(s)
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.OptimizeJoint(DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	hot := run(373)
	cold := run(300)
	if cold.Energy.Total() >= hot.Energy.Total() {
		t.Errorf("cold optimum %v not below hot %v", cold.Energy.Total(), hot.Energy.Total())
	}
	if cold.Energy.Static >= hot.Energy.Static {
		t.Errorf("cold static %v not below hot %v", cold.Energy.Static, hot.Energy.Static)
	}
	if cold.VtsValues[0] > hot.VtsValues[0]+0.02 {
		t.Errorf("cold threshold %v above hot %v", cold.VtsValues[0], hot.VtsValues[0])
	}
}

func TestOptimizeRunsEveryMode(t *testing.T) {
	c := smallCircuit(t)
	for _, mode := range Modes {
		res, err := problemFor(t, c, 0.3).Optimize(mode, 2, Options{M: 4})
		if err != nil || res == nil {
			t.Errorf("mode %q: res %v, err %v", mode, res, err)
		}
	}
	if _, err := problemFor(t, c, 0.3).Optimize("frob", 0, Options{}); err == nil || !strings.Contains(err.Error(), "unknown mode") {
		t.Errorf("unknown mode: err = %v", err)
	}
}
