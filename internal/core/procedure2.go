package core

import (
	"fmt"
	"math"

	"cmosopt/internal/design"
	"cmosopt/internal/optimize"
	"cmosopt/internal/parallel"
)

// Options parameterizes the heuristic optimizers.
type Options struct {
	// M is the number of bisection steps in each of Procedure 2's nested
	// loops (the paper's M; total cost is O(M³) circuit evaluations).
	M int
	// WidthPasses is the number of fixed-point sweeps in the width solver.
	// 1 reproduces the paper's literal single pass.
	WidthPasses int
	// FixedVt, when > 0, pins every gate's threshold (the Table 1 baseline
	// uses 0.7 V) and optimizes only Vdd and widths.
	FixedVt float64 //cmosvet:unit V
	// FixedVdd, when > 0, additionally pins the supply in OptimizeBaseline,
	// leaving only widths free — the conventional full-supply reference
	// design (the paper's Table 1 runs returned Vdd ≈ 3.3 V, making its
	// reference numerically a fixed-3.3 V design).
	FixedVdd float64 //cmosvet:unit V
	// VtTimingFactor scales thresholds during delay evaluation (slow process
	// corner, ≥ 1 in variation studies). Zero means 1 (nominal).
	VtTimingFactor float64 //cmosvet:unit 1
	// VtPowerFactor scales thresholds during energy evaluation (leaky
	// process corner, ≤ 1 in variation studies). Zero means 1 (nominal).
	VtPowerFactor float64 //cmosvet:unit 1
	// Workers caps the goroutines used by the parallel drivers (landscape
	// grids, speculative candidate evaluation, the study sweeps). 0 means
	// one worker per CPU (GOMAXPROCS); 1 forces serial execution. Results are byte-identical for any value — only wall-clock
	// time changes.
	Workers int
}

// DefaultOptions returns the settings used for the paper's result tables.
func DefaultOptions() Options {
	return Options{M: 12, WidthPasses: 4}
}

func (o *Options) fill() {
	if o.M == 0 {
		o.M = 12
	}
	if o.WidthPasses == 0 {
		o.WidthPasses = 4
	}
	if o.VtTimingFactor == 0 {
		o.VtTimingFactor = 1
	}
	if o.VtPowerFactor == 0 {
		o.VtPowerFactor = 1
	}
}

func (o *Options) validate() error {
	if o.M < 1 || o.M > 64 {
		return fmt.Errorf("core: M = %d outside [1,64]", o.M)
	}
	if o.WidthPasses < 1 || o.WidthPasses > 32 {
		return fmt.Errorf("core: WidthPasses = %d outside [1,32]", o.WidthPasses)
	}
	if o.VtTimingFactor < 1 {
		return fmt.Errorf("core: VtTimingFactor %v < 1 (timing corner must be slow)", o.VtTimingFactor)
	}
	if o.VtPowerFactor <= 0 || o.VtPowerFactor > 1 {
		return fmt.Errorf("core: VtPowerFactor %v outside (0,1]", o.VtPowerFactor)
	}
	if o.Workers < 0 {
		return fmt.Errorf("core: Workers = %d negative (0 means GOMAXPROCS)", o.Workers)
	}
	return nil
}

// evalPoint solves widths at one (Vdd, Vts) candidate and returns the
// objective energy (corner-adjusted when variation factors are set), the
// solved nominal assignment, and feasibility. Infeasible points get +Inf.
// It runs on an evalCtx so parallel drivers can price independent candidates
// on worker engine clones; the Problem method is the serial entry point.
func (p *Problem) evalPoint(vdd, vts float64, o *Options) (float64, *design.Assignment, bool) {
	return p.sctx.evalPoint(vdd, vts, o)
}

func (c *evalCtx) evalPoint(vdd, vts float64, o *Options) (float64, *design.Assignment, bool) {
	p := c.p
	n := p.C.N()
	node := c.trace.Child("point")
	ptT := node.Start()
	defer ptT.Stop()
	// Timing view: thresholds at the slow corner share the width slice with
	// the nominal assignment, so the width solve writes through.
	nominal := design.Uniform(n, vdd, vts, p.Tech.WMin)
	timingView := nominal
	if o.VtTimingFactor != 1 {
		timingView = &design.Assignment{Vdd: vdd, Vts: make([]float64, n), W: nominal.W}
		for i := range timingView.Vts {
			timingView.Vts[i] = vts * o.VtTimingFactor
		}
	}
	wT := node.StartChild("widths")
	ok := c.solveWidths(timingView, o.M, o.WidthPasses)
	wT.Stop()
	if !ok {
		return math.Inf(1), nominal, false
	}
	powerView := nominal
	if o.VtPowerFactor != 1 {
		powerView = &design.Assignment{Vdd: vdd, Vts: make([]float64, n), W: nominal.W}
		for i := range powerView.Vts {
			powerView.Vts[i] = vts * o.VtPowerFactor
		}
	}
	eT := node.StartChild("energy")
	e := c.eng.Energy(powerView).Total()
	eT.Stop()
	return e, nominal, true
}

// level is one of Procedure 2's directional bisections: the voltage range
// it halves, the half an improving candidate steers into, and how its
// candidates are priced.
type level struct {
	r optimize.Range
	// higher is the improving direction: HIGHER for thresholds (chase lower
	// leakage), LOWER for supplies (chase lower switching energy).
	higher bool
	// price evaluates the candidate at x, commits it (incumbent, effort
	// meter) and returns its energy and feasibility.
	price func(x float64) (e float64, ok bool)
	// batch, when set, prices MID(r) and the midpoints of both ranges
	// reachable from it at once and commits none of them; the walk commits
	// only the two results on its path.
	batch func(mid, toward, away float64) [3]candidate
}

// candidate is a priced but uncommitted batch result: calling it commits the
// candidate and returns its energy and feasibility.
type candidate func() (e float64, ok bool)

// bisect walks one level for m steps and returns the lowest energy it priced
// (+Inf when no candidate was feasible). Each step prices MID(r); a feasible
// price no worse than the level's best so far moves r into the improving
// half, any other price into the other half. The context is polled between
// candidates, never inside one, so an uncanceled walk takes the exact same
// steps. With a batch, each poll resolves two steps: the first result picks
// which of the two speculative successors is on the path.
func (p *Problem) bisect(l level, m int) float64 {
	r, best := l.r, math.Inf(1)
	next := func(improved bool) optimize.Range {
		if improved == l.higher {
			return r.Higher()
		}
		return r.Lower()
	}
	step := func(e float64, ok bool) bool {
		improved := ok && e <= best
		r = next(improved)
		if e < best {
			best = e
		}
		return improved
	}
	for j := 0; j < m; {
		if p.ctx.Err() != nil {
			break
		}
		if l.batch == nil || j+1 >= m {
			step(l.price(r.Mid()))
			j++
			continue
		}
		cs := l.batch(r.Mid(), next(true).Mid(), next(false).Mid())
		if step(cs[0]()) {
			step(cs[1]())
		} else {
			step(cs[2]())
		}
		j += 2
	}
	return best
}

// OptimizeJoint runs the paper's Procedure 2: nested directional bisection of
// the Vdd and Vts ranges with a per-gate minimum-width binary search inside,
// steered by "all delay budgets met and total energy decreased". The best
// feasible point seen anywhere during the search is returned (the procedure's
// final iterate is never better than its incumbent).
func (p *Problem) OptimizeJoint(opts Options) (*Result, error) {
	opts.fill()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if opts.FixedVt != 0 {
		return nil, fmt.Errorf("core: OptimizeJoint with FixedVt set; use OptimizeBaseline")
	}
	evals0 := p.Eval.FullEvalEquivalents()

	joint := p.span("optimize.joint")
	jointT := joint.Start()
	defer jointT.Stop()
	lvl := joint.Child("vdd-level")
	oldTrace := p.setTrace(lvl)
	defer p.setTrace(oldTrace)

	bestE := math.Inf(1)
	var bestA *design.Assignment
	consider := func(e float64, a *design.Assignment, ok bool) {
		if ok && e < bestE {
			bestE, bestA = e, a
		}
	}

	// The threshold walk is sequential — each candidate's result steers the
	// next range — but both possible next ranges are known before the result
	// is: with ≥ 3 workers each batch prices the current candidate and the two
	// reachable next ones on engine clones, resolving two steps at once. Only
	// on-path results feed the incumbent and the effort meter, so the walk —
	// and the reported evaluation count — is byte-identical to the serial one
	// at any worker count; the discarded branch's work is the price of the
	// latency win.
	speculate := parallel.Workers(opts.Workers) >= 3
	vtsLevel := func(vdd float64) level {
		l := level{
			r:      optimize.Range{Lo: p.Tech.VtsMin, Hi: p.Tech.VtsMax},
			higher: true,
			price: func(vts float64) (float64, bool) {
				e, a, ok := p.evalPoint(vdd, vts, &opts)
				consider(e, a, ok)
				return e, ok
			},
		}
		if speculate {
			l.batch = func(mid, toward, away float64) [3]candidate {
				rs, mets := p.specPoints([][2]float64{{vdd, mid}, {vdd, toward}, {vdd, away}}, &opts)
				joint.Add("speculative_batches", 1)
				var cs [3]candidate
				for i := range cs {
					cs[i] = func() (float64, bool) {
						p.Eval.Metrics().Add(mets[i])
						consider(rs[i].e, rs[i].a, rs[i].ok)
						return rs[i].e, rs[i].ok
					}
				}
				return cs
			}
		}
		return l
	}
	p.bisect(level{
		r: optimize.Range{Lo: p.Tech.VddMin, Hi: p.Tech.VddMax},
		price: func(vdd float64) (float64, bool) {
			lvlT := lvl.Start()
			defer lvlT.Stop()
			e := p.bisect(vtsLevel(vdd), opts.M)
			return e, !math.IsInf(e, 1)
		},
	}, opts.M)

	if err := p.Canceled(); err != nil {
		return nil, err
	}
	if bestA == nil {
		return nil, fmt.Errorf("core: no feasible design point for %q at fc=%v (budget %v s)", p.C.Name, p.Fc, p.CycleBudget())
	}
	res := p.finishResult(ModeJoint, bestA, true, evals0)
	res.Objective = bestE
	return res, nil
}

// OptimizeBaseline reproduces the paper's Table 1 reference flow: the
// threshold voltage is pinned (700 mV in the paper) and only the supply
// voltage and device widths are optimized, with the same steering rule.
func (p *Problem) OptimizeBaseline(opts Options) (*Result, error) {
	opts.fill()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	vt := opts.FixedVt
	if vt == 0 {
		vt = 0.7
	}
	if vt < p.Tech.VtsMin || vt > p.Tech.VtsMax {
		return nil, fmt.Errorf("core: fixed Vt %v outside tech range [%v,%v]", vt, p.Tech.VtsMin, p.Tech.VtsMax)
	}
	evals0 := p.Eval.FullEvalEquivalents()

	node := p.span("optimize.baseline")
	nT := node.Start()
	defer nT.Stop()
	oldTrace := p.setTrace(node)
	defer p.setTrace(oldTrace)

	bestE := math.Inf(1)
	var bestA *design.Assignment
	method := ModeBaseline
	if opts.FixedVdd > 0 {
		// Widths-only reference at a pinned supply.
		if opts.FixedVdd < p.Tech.VddMin || opts.FixedVdd > p.Tech.VddMax {
			return nil, fmt.Errorf("core: fixed Vdd %v outside tech range [%v,%v]", opts.FixedVdd, p.Tech.VddMin, p.Tech.VddMax)
		}
		method = "baseline-fixed-vdd"
		e, a, ok := p.evalPoint(opts.FixedVdd, vt, &opts)
		if ok {
			bestE, bestA = e, a
		}
	} else {
		p.bisect(level{
			r: optimize.Range{Lo: p.Tech.VddMin, Hi: p.Tech.VddMax},
			price: func(vdd float64) (float64, bool) {
				e, a, ok := p.evalPoint(vdd, vt, &opts)
				if ok && e < bestE {
					bestE, bestA = e, a
				}
				return e, ok
			},
		}, opts.M)
	}
	if err := p.Canceled(); err != nil {
		return nil, err
	}
	if bestA == nil {
		return nil, fmt.Errorf("core: no feasible baseline design for %q at fc=%v with Vt=%v", p.C.Name, p.Fc, vt)
	}
	res := p.finishResult(method, bestA, true, evals0)
	res.Objective = bestE
	return res, nil
}
