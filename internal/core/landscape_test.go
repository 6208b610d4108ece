package core

import (
	"math"
	"testing"
)

func TestSampleLandscapeShape(t *testing.T) {
	p := problemFor(t, smallCircuit(t), 0.5)
	ls, err := p.SampleLandscape(7, 7, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(ls.E) != 7 || len(ls.E[0]) != 7 {
		t.Fatalf("grid %dx%d", len(ls.E), len(ls.E[0]))
	}
	feas, total := 0, 0
	for _, row := range ls.E {
		for _, v := range row {
			total++
			if !math.IsInf(v, 1) {
				feas++
			}
		}
	}
	if feas == 0 || feas == total {
		t.Errorf("%d of %d grid points feasible; want an interior fraction (wall exists)", feas, total)
	}
	vdd, vts, e, ok := ls.Min()
	if !ok || math.IsInf(e, 1) {
		t.Fatal("no feasible grid point")
	}
	// §3 physics: the grid minimum sits at low supply and low threshold, far
	// from the (VddMax, VtsMax) corner.
	if vdd > 2.0 || vts > 0.45 {
		t.Errorf("grid minimum at (%v, %v), expected low-voltage corner region", vdd, vts)
	}
	// Feasibility is monotone in Vdd at fixed Vts: once feasible, staying
	// feasible as the supply rises.
	for j := range ls.Vts {
		seen := false
		for i := range ls.Vdd {
			feas := !math.IsInf(ls.E[i][j], 1)
			if seen && !feas {
				t.Errorf("feasibility not monotone in Vdd at Vts=%v", ls.Vts[j])
				break
			}
			if feas {
				seen = true
			}
		}
	}
}

func TestSampleLandscapeValidation(t *testing.T) {
	p := problemFor(t, smallCircuit(t), 0.5)
	if _, err := p.SampleLandscape(1, 5, DefaultOptions()); err == nil {
		t.Error("degenerate grid accepted")
	}
}

func TestLandscapeMinNearProcedure2Optimum(t *testing.T) {
	p := problemFor(t, smallCircuit(t), 0.5)
	res, err := p.OptimizeJoint(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ls, err := p.SampleLandscape(9, 9, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	_, _, e, ok := ls.Min()
	if !ok {
		t.Fatal("no feasible grid point")
	}
	// The heuristic must be at least as good as a coarse grid scan.
	if res.Energy.Total() > e*1.2 {
		t.Errorf("Procedure 2 result %v much worse than grid minimum %v", res.Energy.Total(), e)
	}
}
