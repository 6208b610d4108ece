package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"cmosopt/internal/activity"
	"cmosopt/internal/circuit"
	"cmosopt/internal/cli"
	"cmosopt/internal/core"
	"cmosopt/internal/design"
	"cmosopt/internal/eval"
	"cmosopt/internal/netgen"
	"cmosopt/internal/obs"
	"cmosopt/internal/timing"
)

// tracer records the benchmark's own spans around the public calls it makes
// into each layer. Spans stay in memory and are summarized when the run
// ends. A nil tracer records nothing, so untraced runs pay one nil check.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

// span is one timed call. Spans of one request or pass share a root: every
// span names its parent (-1 for a root).
type span struct {
	name       string
	parent     int
	start, end time.Duration
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Since(t.t0), end: -1})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].end = time.Since(t.t0)
}

// spanAgg is the per-name total of a run's spans.
type spanAgg struct {
	name        string
	count       int
	total, self time.Duration
}

// summary aggregates closed spans by name. Self time is a span's duration
// minus the part of it that its children cover; concurrent children (the
// requests of one serve step) are merged before subtracting.
func (t *tracer) summary() []spanAgg {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int][]span)
	for _, s := range t.spans {
		if s.parent >= 0 && s.end >= 0 {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	byName := make(map[string]*spanAgg)
	var order []string
	for id, s := range t.spans {
		if s.end < 0 {
			continue
		}
		a := byName[s.name]
		if a == nil {
			a = &spanAgg{name: s.name}
			byName[s.name] = a
			order = append(order, s.name)
		}
		d := s.end - s.start
		a.count++
		a.total += d
		a.self += d - covered(s, kids[id])
	}
	out := make([]spanAgg, 0, len(order))
	for _, n := range order {
		out = append(out, *byName[n])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, children []span) time.Duration {
	sort.Slice(children, func(i, j int) bool { return children[i].start < children[j].start })
	var sum time.Duration
	lo, hi := time.Duration(-1), time.Duration(-1)
	for _, c := range children {
		s, e := max(c.start, parent.start), min(c.end, parent.end)
		if e <= s {
			continue
		}
		if s > hi {
			sum += hi - lo
			lo, hi = s, e
		} else if e > hi {
			hi = e
		}
	}
	return sum + hi - lo
}

// callCounts accumulates the engine's Metrics growth over optimizer calls.
type callCounts struct {
	calls int
	evals int64 // Σ Result.Evaluations
	m     eval.Metrics
}

// add folds in the Metrics growth between before and after and the call's
// reported evaluation count (res may be nil for an infeasible call).
func (c *callCounts) add(before, after eval.Metrics, res *core.Result) {
	c.calls++
	if res != nil {
		c.evals += int64(res.Evaluations)
	}
	c.m.GateDelayCalls += after.GateDelayCalls - before.GateDelayCalls
	c.m.GateEnergyCalls += after.GateEnergyCalls - before.GateEnergyCalls
	c.m.FullDelaySweeps += after.FullDelaySweeps - before.FullDelaySweeps
	c.m.FullEnergySweeps += after.FullEnergySweeps - before.FullEnergySweeps
	c.m.WidthProbes += after.WidthProbes - before.WidthProbes
	c.m.IncrementalEdits += after.IncrementalEdits - before.IncrementalEdits
	c.m.DirtyGates += after.DirtyGates - before.DirtyGates
	c.m.CoeffHits += after.CoeffHits - before.CoeffHits
	c.m.CoeffMisses += after.CoeffMisses - before.CoeffMisses
}

// report stores the per-call averages into v.
func (c *callCounts) report(v map[string]float64) {
	if c.calls == 0 {
		return
	}
	n := float64(c.calls)
	v["eval.gate_delay_calls"] = float64(c.m.GateDelayCalls) / n
	v["eval.width_probes"] = float64(c.m.WidthProbes) / n
	v["eval.full_delay_sweeps"] = float64(c.m.FullDelaySweeps) / n
	v["eval.full_energy_sweeps"] = float64(c.m.FullEnergySweeps) / n
	v["eval.incremental_edits"] = float64(c.m.IncrementalEdits) / n
	v["eval.coeff_misses"] = float64(c.m.CoeffMisses) / n
	if att := c.m.CoeffHits + c.m.CoeffMisses; att > 0 {
		v["eval.coeff_hit_ratio"] = float64(c.m.CoeffHits) / float64(att)
	}
	v["core.circuit_evals"] = float64(c.evals) / n
}

// spanCounts reads the obs registries attached (through core.Spec.Obs) to
// the problems of traced passes.
type spanCounts struct {
	gateSolves     int64 // Σ over problems of widths-span count × logic gates
	probes         int64 // width probes made on those problems
	levels, points int64 // vdd-level spans and the point spans under them
	jointNS        int64 // optimize.joint span time
	widthsInJoint  int64 // widths span time inside optimize.joint
}

// add folds in one problem's registry; probes is the width-probe count of
// the calls made on that problem.
func (s *spanCounts) add(reg *obs.Registry, gates int, probes int64) {
	snap := reg.Snapshot() //cmosvet:allow obswriteonly — the benchmark reports span counts; they steer nothing
	if snap.Spans == nil {
		return
	}
	s.gateSolves += countNamed(*snap.Spans, "widths") * int64(gates)
	s.probes += probes
	for _, top := range snap.Spans.Children {
		if top.Name != "optimize.joint" {
			continue
		}
		s.jointNS += top.DurationNS
		s.widthsInJoint += durNamed(top, "widths")
		for _, lvl := range top.Children {
			if lvl.Name == "vdd-level" {
				s.levels += lvl.Count
				s.points += countNamed(lvl, "point")
			}
		}
	}
}

func (s *spanCounts) report(v map[string]float64) {
	if s.gateSolves > 0 {
		v["core.probes_per_gate_per_solve"] = float64(s.probes) / float64(s.gateSolves)
	}
	if s.levels > 0 {
		v["core.points_per_vdd_level"] = float64(s.points) / float64(s.levels)
	}
	if s.jointNS > 0 {
		v["core.widths_self_frac"] = float64(s.widthsInJoint) / float64(s.jointNS)
	}
}

func countNamed(s obs.SpanSnapshot, name string) int64 {
	var n int64
	if s.Name == name {
		n += s.Count
	}
	for _, c := range s.Children {
		n += countNamed(c, name)
	}
	return n
}

func durNamed(s obs.SpanSnapshot, name string) int64 {
	var d int64
	if s.Name == name {
		d += s.DurationNS
	}
	for _, c := range s.Children {
		d += durNamed(c, name)
	}
	return d
}

// repeatFor calls f until at least budget has passed and at least min
// times, and returns the calls made and the time they took.
func repeatFor(budget time.Duration, minCalls int, f func()) (int, time.Duration) {
	start := time.Now()
	n := 0
	for n < minCalls || time.Since(start) < budget {
		f()
		n++
	}
	return n, time.Since(start)
}

const replayBudget = 40 * time.Millisecond

// engineReplay times the engine's public API at a solved assignment:
// ProbeWidth on every logic gate, full CriticalDelay+Energy sweeps, and
// incremental SetWidth edits with bound re-timing. It changes no result:
// edits run on a clone of the assignment.
type engineReplay struct {
	probeNS, probes      float64
	sweepNS, sweepGates  float64
	allocs, sweeps       float64
	editNS, dirty, edits float64
}

func (r *engineReplay) add(p *core.Problem, a *design.Assignment) {
	e := p.Eval
	ids, err := p.C.LogicIDs()
	if err != nil || len(ids) == 0 {
		return
	}
	td := e.Delays(a)
	maxIn := make([]float64, len(ids))
	for i, id := range ids {
		for _, f := range p.C.Gate(id).Fanin {
			maxIn[i] = max(maxIn[i], td[f])
		}
	}
	n, d := repeatFor(replayBudget, 2, func() {
		for i, id := range ids {
			e.ProbeWidth(id, a, a.W[id]*1.1, maxIn[i])
		}
	})
	r.probeNS += float64(d.Nanoseconds())
	r.probes += float64(n * len(ids))

	e.CriticalDelay(a) // warm the coefficient cache and scratch
	e.Energy(a)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	n, d = repeatFor(replayBudget, 2, func() {
		e.CriticalDelay(a)
		e.Energy(a)
	})
	runtime.ReadMemStats(&m1)
	r.sweepNS += float64(d.Nanoseconds())
	r.sweepGates += float64(n * p.C.N())
	r.allocs += float64(m1.Mallocs - m0.Mallocs)
	r.sweeps += float64(n)

	b := a.Clone()
	e.Bind(b)
	defer e.Unbind()
	before := *e.Metrics()
	stride := max(1, len(ids)/256)
	start := time.Now()
	for i := 0; i < len(ids); i += stride {
		id := ids[i]
		w := b.W[id]
		e.SetWidth(id, w*1.25)
		e.BoundCriticalDelay()
		e.BoundEnergy()
		e.SetWidth(id, w)
	}
	r.editNS += float64(time.Since(start).Nanoseconds())
	after := *e.Metrics()
	r.dirty += float64(after.DirtyGates - before.DirtyGates)
	r.edits += float64(after.IncrementalEdits - before.IncrementalEdits)
}

func (r *engineReplay) report(v map[string]float64) {
	if r.probes > 0 {
		v["eval.probe_ns"] = r.probeNS / r.probes
	}
	if r.sweepGates > 0 {
		v["eval.sweep_ns_per_gate"] = r.sweepNS / r.sweepGates
		v["eval.allocs_per_sweep"] = r.allocs / r.sweeps
	}
	if r.dirty > 0 {
		v["eval.edit_ns_per_dirty_gate"] = r.editNS / r.dirty
		v["eval.dirty_gates_per_edit"] = r.dirty / r.edits
	}
}

// elabReplay times, one public call at a time, the steps core.NewProblem
// runs inside: DFF cutting and CSR build, Najm propagation, Procedure 1
// analysis, and budget assignment plus repair.
type elabReplay struct {
	comb, act, ana, budget, parse []float64 // ms per circuit
}

func (r *elabReplay) add(c *circuit.Circuit, fc, act float64, seed int64) error {
	seq, err := netgen.Sequentialize(c, seed)
	if err != nil {
		return err
	}
	var perr error
	r.comb = append(r.comb, msPerCall(func() { _, perr = seq.Combinational() }))
	if perr != nil {
		return perr
	}
	specs := make(map[int]activity.InputSpec, len(c.PIs))
	for _, id := range c.PIs {
		specs[id] = activity.InputSpec{Prob: 0.5, Density: act}
	}
	r.act = append(r.act, msPerCall(func() { _, perr = activity.Propagate(c, specs) }))
	var ta *timing.Analysis
	r.ana = append(r.ana, msPerCall(func() { ta, perr = timing.NewAnalysis(c) }))
	if perr != nil {
		return perr
	}
	r.budget = append(r.budget, msPerCall(func() {
		var b *timing.BudgetResult
		if b, perr = timing.AssignBudgets(ta, skew/fc); perr == nil {
			_, perr = timing.RepairBudgets(ta, b, 0.16, 0.75)
		}
	}))
	text := circuit.BenchString(c)
	r.parse = append(r.parse, msPerCall(func() { _, perr = circuit.ParseBenchString(c.Name, text) }))
	return perr
}

func (r *elabReplay) report(v map[string]float64) {
	if len(r.comb) == 0 {
		return
	}
	v["circuit.combinational_ms"] = median(r.comb)
	v["activity.propagate_ms"] = median(r.act)
	v["timing.analysis_ms"] = median(r.ana)
	v["timing.budget_ms"] = median(r.budget)
	v["circuit.parse_ms"] = median(r.parse)
}

// msPerCall is f's mean time in ms over a short repeat loop.
func msPerCall(f func()) float64 {
	n, d := repeatFor(replayBudget/4, 1, f)
	return float64(d.Nanoseconds()) / 1e6 / float64(n)
}

// renderUS is the mean time in µs of cli.PrintResult for one result.
func renderUS(p *core.Problem, res *core.Result) float64 {
	n, d := repeatFor(replayBudget/4, 1, func() { cli.PrintResult(io.Discard, p, res) })
	return float64(d.Nanoseconds()) / 1e3 / float64(n)
}

// printSpans writes the span summary of a traced run.
func printSpans(lines *[]string, t *tracer) {
	for _, a := range t.summary() {
		*lines = append(*lines, fmt.Sprintf("span %-28s count %6d  total %10.3f ms  self %10.3f ms",
			a.name, a.count, ms(a.total), ms(a.self)))
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
