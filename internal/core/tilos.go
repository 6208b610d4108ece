package core

import (
	"fmt"
	"math"

	"cmosopt/internal/circuit"
	"cmosopt/internal/design"
	"cmosopt/internal/optimize"
)

// Sensitivity-based sizing, in the TILOS tradition (the greedy ancestor of
// the exact convex sizing of the paper's reference [10], Sapatnekar et al.).
// Where Procedure 2's inner loop sizes each gate against a precomputed
// Procedure 1 delay budget, the sensitivity sizer needs no budgets at all:
// starting from minimum widths, it repeatedly upsizes the gate on the
// current critical path with the best delay improvement per unit of width,
// until the whole circuit meets the cycle time. It serves as a comparator
// for the ablation "budget-driven vs sensitivity-driven sizing".

// sizeSensitivity grows widths greedily until the critical delay fits the
// cycle budget. Returns false when even aggressive upsizing cannot meet it.
//
// The loop runs on the engine's incremental mode: the assignment is bound
// once, each accepted move re-times only the widened gate's fanin loads and
// fanout cone, and candidate moves are scored with width-override probes —
// no full-circuit sweep per iteration and no mutate-and-restore on a. A
// move's score is a pure function of widths and tracked delays, so scores
// are cached across iterations and only those an edit can reach are
// recomputed (moveScores.widened and moveScores.retimed).
func (p *Problem) sizeSensitivity(a *design.Assignment, step float64) bool {
	budget := p.CycleBudget()
	cs, err := p.C.CSR()
	if err != nil {
		return false
	}
	p.Eval.Bind(a)
	defer p.Eval.Unbind()
	sc := &moveScores{gain: make([]float64, p.C.N()), fresh: make([]bool, p.C.N())}
	const maxIters = 4000
	for iter := 0; iter < maxIters; iter++ {
		cd := p.Eval.BoundCriticalDelay()
		if cd <= budget {
			return true
		}
		if math.IsInf(cd, 1) {
			return false
		}
		if p.sizingMove(cs, a, step, budget, sc) < 0 {
			return false // no improving move left
		}
	}
	return p.Eval.BoundCriticalDelay() <= budget
}

// moveScores caches each gate's move gain between sizing iterations: gain[id]
// is current while fresh[id] holds.
type moveScores struct {
	gain  []float64 //cmosvet:unit s
	fresh []bool
}

// widened marks stale every score that reads gate g's width. The score of
// id reads W[id], W[fanout(id)] and, for each logic fanin f, W[f] and
// W[fanout(f)]; so g, its fanouts, its logic fanins and their fanouts.
func (sc *moveScores) widened(cs *circuit.CSR, g int) {
	sc.fresh[g] = false
	sc.staleFanouts(cs, int32(g))
	for _, f := range cs.Fanins(int32(g)) {
		if cs.IsLogic[f] {
			sc.fresh[f] = false
			sc.staleFanouts(cs, f)
		}
	}
}

// retimed marks stale every score that reads a tracked delay of a gate in d.
// The score of id reads td[id], td[fanin(id)] and, for each logic fanin f,
// td[f] and td[fanin(f)]; so each gate in d, its fanouts and theirs.
func (sc *moveScores) retimed(cs *circuit.CSR, d []int) {
	for _, x := range d {
		sc.fresh[x] = false
		for _, o := range cs.Fanouts(int32(x)) {
			sc.fresh[o] = false
			sc.staleFanouts(cs, o)
		}
	}
}

func (sc *moveScores) staleFanouts(cs *circuit.CSR, id int32) {
	for _, o := range cs.Fanouts(id) {
		sc.fresh[o] = false
	}
}

// sizingMove widens the candidate with the best delay improvement per unit
// of width by one step and marks stale the cached scores the edit reaches.
// Candidates are the gates below WMax with non-positive slack (gates on
// near-critical paths); ties go to the first in topological order. It
// returns the widened gate, or -1 when no move improves.
//
//cmosvet:unit budget s
func (p *Problem) sizingMove(cs *circuit.CSR, a *design.Assignment, step, budget float64, sc *moveScores) int {
	slack, td := p.Eval.BoundSlacks(budget), p.Eval.BoundDelays()
	bestGate, bestGain := -1, 0.0
	for _, id := range p.logicIDs {
		if slack[id] > 0 || a.W[id] >= p.Tech.WMax {
			continue
		}
		if !sc.fresh[id] {
			sc.gain[id], sc.fresh[id] = p.moveGain(cs, a, id, td, step), true
		}
		if sc.gain[id] > bestGain {
			bestGain, bestGate = sc.gain[id], id
		}
	}
	if bestGate < 0 {
		return -1
	}
	p.Eval.SetWidth(bestGate, min(a.W[bestGate]*(1+step), p.Tech.WMax))
	sc.widened(cs, bestGate)
	sc.retimed(cs, p.Eval.BoundRetimed())
	return bestGate
}

// moveGain is the local sensitivity of widening gate id by one step: the
// drop in delay of the gate itself plus the loading penalty on its drivers,
// per width increment. Before the move that local delay is exactly the
// tracked delays of id and its logic fanins — the engine keeps every tracked
// delay equal to the model's value for the current state — so only the
// widened side costs model calls.
func (p *Problem) moveGain(cs *circuit.CSR, a *design.Assignment, id int, td []float64, step float64) float64 {
	old := a.W[id]
	next := min(old*(1+step), p.Tech.WMax)
	before := td[id]
	for _, f := range cs.Fanins(int32(id)) {
		if cs.IsLogic[f] {
			before += td[f]
		}
	}
	after := p.localDelay(cs, a, id, td, id, next)
	return (before - after) / (next - old)
}

// localDelay scores the timing cost of gate id and its fanin drivers (whose
// loads it contributes to), using the current per-gate delays for slope
// inputs — a cheap local proxy for the global critical delay change. When
// ov ≥ 0, gate ov's width is taken as wOv wherever it appears (its own
// switching width and the load it presents to its drivers).
func (p *Problem) localDelay(cs *circuit.CSR, a *design.Assignment, id int, td []float64, ov int, wOv float64) float64 {
	sum := p.Eval.GateDelayOverride(id, a, ov, wOv, maxDelay(cs, td, int32(id)))
	for _, f := range cs.Fanins(int32(id)) {
		if cs.IsLogic[f] {
			sum += p.Eval.GateDelayOverride(int(f), a, ov, wOv, maxDelay(cs, td, f))
		}
	}
	return sum
}

// maxDelay returns the largest delay in td over gate id's fanins (0 for none).
func maxDelay(cs *circuit.CSR, td []float64, id int32) float64 {
	m := 0.0
	for _, f := range cs.Fanins(id) {
		if td[f] > m {
			m = td[f]
		}
	}
	return m
}

// OptimizeJointSensitivity runs the outer Procedure 2 voltage bisections
// with the sensitivity sizer in place of the budget-driven width solver.
func (p *Problem) OptimizeJointSensitivity(opts Options) (*Result, error) {
	opts.fill()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	evals0 := p.Eval.FullEvalEquivalents()
	const step = 0.25

	node := p.span("optimize.sensitivity")
	nT := node.Start()
	defer nT.Stop()

	bestE := math.Inf(1)
	var bestA *design.Assignment
	eval := func(vdd, vts float64) (float64, bool) {
		a := design.Uniform(p.C.N(), vdd, vts, p.Tech.WMin)
		szT := node.StartChild("size")
		ok := p.sizeSensitivity(a, step)
		szT.Stop()
		if !ok {
			return math.Inf(1), false
		}
		e := p.Eval.Energy(a).Total()
		if e < bestE {
			bestE, bestA = e, a
		}
		return e, true
	}

	p.bisect(level{
		r: optimize.Range{Lo: p.Tech.VddMin, Hi: p.Tech.VddMax},
		price: func(vdd float64) (float64, bool) {
			e := p.bisect(level{
				r:      optimize.Range{Lo: p.Tech.VtsMin, Hi: p.Tech.VtsMax},
				higher: true,
				price:  func(vts float64) (float64, bool) { return eval(vdd, vts) },
			}, opts.M)
			return e, !math.IsInf(e, 1)
		},
	}, opts.M)
	if err := p.Canceled(); err != nil {
		return nil, err
	}
	if bestA == nil {
		return nil, fmt.Errorf("core: sensitivity sizing found no feasible point for %q", p.C.Name)
	}
	res := p.finishResult("joint-sensitivity", bestA, true, evals0)
	res.Objective = bestE
	return res, nil
}
