package core

import (
	"cmosopt/internal/design"
	"cmosopt/internal/eval"
	"cmosopt/internal/obs"
	"cmosopt/internal/parallel"
)

// evalCtx is one worker's view of a Problem: an evaluation engine plus the
// width-solver scratch. The Problem owns one serial context over its main
// engine (p.sctx); parallel drivers clone more, one per worker, so
// independent (V_dd, V_TS) solves never share mutable state. Everything a
// context reaches through p — circuit, budgets, technology, wiring, activity
// — is read-only after NewProblem.
type evalCtx struct {
	p   *Problem
	eng *eval.Engine
	wtd []float64 // solveWidths per-pass delay scratch (lazily allocated)
	// trace is the span node candidate evaluations attach under — set by the
	// running optimizer on the serial context (via Problem.setTrace) and
	// inherited by worker clones. Nil (spans off) without a registry.
	trace *obs.Span
}

// cloneCtx builds a fresh worker context over a clone of the main engine.
func (p *Problem) cloneCtx() *evalCtx {
	return &evalCtx{p: p, eng: p.Eval.Clone(), trace: p.sctx.trace}
}

// fork returns a worker's private copy of the problem for drivers that run
// whole optimizations concurrently (e.g. one VariationStudy corner per
// worker): shared circuit, activity, wiring, timing and budgets, a cloned
// engine with its own serial context. The caller merges the fork's effort
// counters back with absorb when the work is on-path.
func (p *Problem) fork() *Problem {
	np := &Problem{
		C:        p.C,
		Tech:     p.Tech,
		Act:      p.Act,
		Wire:     p.Wire,
		Timing:   p.Timing,
		Budgets:  p.Budgets,
		Fc:       p.Fc,
		Skew:     p.Skew,
		logicIDs: p.logicIDs,
		Eval:     p.Eval.Clone(),
		otrace:   p.otrace,
		ctx:      p.ctx,
	}
	np.sctx = &evalCtx{p: np, eng: np.Eval, trace: p.sctx.trace}
	return np
}

// absorb merges a worker engine's effort counters into the problem's main
// meter. Counter totals are sums, so the merge order cannot change them:
// after all on-path work is absorbed, the main meter reads exactly what a
// serial run would have counted.
func (p *Problem) absorb(e *eval.Engine) {
	p.Eval.Metrics().Add(*e.Metrics())
}

// workersFor clamps a worker-count knob (0 = GOMAXPROCS) to the job count.
func workersFor(workers, n int) int {
	w := parallel.Workers(workers)
	if w > n {
		w = n
	}
	return w
}

// mapEval runs n independent evaluation jobs over per-worker engine clones
// and merges every clone's effort counters back into the main meter — every
// job here is work a serial loop would also perform (exhaustive scans, not
// speculation), so all of it is billed. Jobs must write only state indexed
// by their own iteration number; reductions belong to the caller, in index
// order, so results are byte-identical at any worker count.
func (p *Problem) mapEval(workers, n int, job func(c *evalCtx, i int)) {
	w := workersFor(workers, n)
	if w <= 1 {
		for i := 0; i < n; i++ {
			job(p.sctx, i)
		}
		return
	}
	ctxs := parallel.Pool(w, func(int) *evalCtx { return p.cloneCtx() })
	parallel.For(w, n, func(wk, i int) { job(ctxs[wk], i) })
	for _, c := range ctxs {
		p.absorb(c.eng)
	}
}

// pointRes is the outcome of one evalPoint candidate.
type pointRes struct {
	e  float64
	a  *design.Assignment
	ok bool
}

// specPoints evaluates a small batch of candidates concurrently, one fresh
// engine clone per candidate, and returns the results together with each
// candidate's own effort snapshot. Nothing is billed here: speculative
// drivers bill only the candidates the serial walk would have evaluated,
// which keeps reported evaluation counts byte-identical at any worker count.
func (p *Problem) specPoints(pts [][2]float64, o *Options) ([]pointRes, []eval.Metrics) {
	out := make([]pointRes, len(pts))
	mets := make([]eval.Metrics, len(pts))
	ctxs := make([]*evalCtx, len(pts))
	for i := range ctxs {
		ctxs[i] = p.cloneCtx()
	}
	parallel.For(len(pts), len(pts), func(_, i int) {
		e, a, ok := ctxs[i].evalPoint(pts[i][0], pts[i][1], o)
		out[i] = pointRes{e, a, ok}
		mets[i] = *ctxs[i].eng.Metrics()
	})
	return out, mets
}
