package core

import (
	"fmt"
	"math"

	"cmosopt/internal/optimize"
)

// Landscape samples the constrained energy surface E*(V_dd, V_ts) — the
// total energy after the width solve, +Inf where the timing constraint
// cannot be met — on a grid over the technology's search ranges. It makes
// the §3 physics visible: the feasibility wall at low supply, the leakage
// cliff at low threshold, and the unique interior optimum where they
// balance.
type Landscape struct {
	Vdd []float64   // grid abscissae (rows) //cmosvet:unit V
	Vts []float64   // grid ordinates (columns) //cmosvet:unit V
	E   [][]float64 // E[i][j] at (Vdd[i], Vts[j]); +Inf = infeasible //cmosvet:unit J
}

// SampleLandscape evaluates an nVdd × nVts grid. Each sample is a full
// width solve, so keep the grid modest (8×8 ≈ one Procedure 2 run). Cells
// are independent and fan out over opts.Workers engine clones; the grid is
// byte-identical at any worker count.
func (p *Problem) SampleLandscape(nVdd, nVts int, opts Options) (*Landscape, error) {
	opts.fill()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if nVdd < 2 || nVts < 2 {
		return nil, fmt.Errorf("core: landscape grid %dx%d too small", nVdd, nVts)
	}
	ls := &Landscape{
		Vdd: optimize.Range{Lo: p.Tech.VddMin, Hi: p.Tech.VddMax}.Linspace(nVdd),
		Vts: optimize.Range{Lo: p.Tech.VtsMin, Hi: p.Tech.VtsMax}.Linspace(nVts),
	}
	ls.E = make([][]float64, nVdd)
	for i := range ls.E {
		ls.E[i] = make([]float64, nVts)
	}
	p.mapEval(opts.Workers, nVdd*nVts, func(c *evalCtx, k int) {
		i, j := k/nVts, k%nVts
		e, _, ok := c.evalPoint(ls.Vdd[i], ls.Vts[j], &opts)
		if !ok {
			e = math.Inf(1)
		}
		ls.E[i][j] = e
	})
	return ls, nil
}

// Min returns the grid minimum and its coordinates; ok is false when the
// whole grid is infeasible.
//
//cmosvet:unit return1 V
//cmosvet:unit return2 V
//cmosvet:unit return3 J
func (l *Landscape) Min() (vdd, vts, e float64, ok bool) {
	e = math.Inf(1)
	for i := range l.E {
		for j, v := range l.E[i] {
			if v < e {
				e = v
				vdd, vts = l.Vdd[i], l.Vts[j]
				ok = true
			}
		}
	}
	return vdd, vts, e, ok
}
