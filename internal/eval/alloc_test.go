package eval

import (
	"testing"

	"cmosopt/internal/design"
)

// TestFullSweepAllocatesNothing pins the steady state of a Procedure 2 probe
// point: once the coefficient cache is warm, a full CriticalDelay + Energy
// sweep runs on the engine's reusable scratch, at suite size and at the
// 100,000-gate scale profile alike.
func TestFullSweepAllocatesNothing(t *testing.T) {
	for _, name := range []string{"s510", "s100k"} {
		eng, n := levelizedCase(t, name, 0)
		a := design.Uniform(n, 1.0, 0.15, 2)
		eng.CriticalDelay(a)
		eng.Energy(a)
		allocs := testing.AllocsPerRun(3, func() {
			eng.CriticalDelay(a)
			eng.Energy(a)
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocations per warm full sweep, want 0", name, allocs)
		}
	}
}

// TestBoundEditAllocatesNothing pins the sensitivity sizer's inner step: a
// bound width edit plus the tracked critical delay and energy reads.
func TestBoundEditAllocatesNothing(t *testing.T) {
	eng, n := levelizedCase(t, "s510", 0)
	a := design.Uniform(n, 1.0, 0.15, 2)
	eng.Bind(a)
	defer eng.Unbind()
	ids, err := eng.C.LogicIDs()
	if err != nil {
		t.Fatal(err)
	}
	edit := func(i int) {
		eng.SetWidth(ids[i%len(ids)], 2+float64(i%7))
		eng.BoundCriticalDelay()
		eng.BoundEnergy()
	}
	for i := range 7 * len(ids) { // warm: every (gate, width) pair the loop visits
		edit(i)
	}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		edit(i)
		i++
	})
	if allocs != 0 {
		t.Errorf("%v allocations per bound edit, want 0", allocs)
	}
}
