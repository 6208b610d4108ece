package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"cmosopt/internal/design"
	"cmosopt/internal/netgen"
)

func TestSensitivitySizerMeetsTiming(t *testing.T) {
	p := problemFor(t, smallCircuit(t), 0.5)
	a := design.Uniform(p.C.N(), 1.0, 0.15, p.Tech.WMin)
	if !p.sizeSensitivity(a, 0.25) {
		t.Fatal("sizer failed at a comfortable operating point")
	}
	if cd := p.Eval.CriticalDelay(a); cd > p.CycleBudget() {
		t.Errorf("critical delay %v exceeds budget %v", cd, p.CycleBudget())
	}
	// Widths stay in range.
	for i := range p.C.Gates {
		if !p.C.Gates[i].IsLogic() {
			continue
		}
		if a.W[i] < p.Tech.WMin || a.W[i] > p.Tech.WMax {
			t.Fatalf("gate %d width %v out of range", i, a.W[i])
		}
	}
}

func TestSensitivitySizerReportsInfeasible(t *testing.T) {
	s := specFor(smallCircuit(t), 0.5)
	s.Fc = 20e9
	p, err := NewProblem(s)
	if err != nil {
		t.Fatal(err)
	}
	a := design.Uniform(p.C.N(), 3.3, 0.1, p.Tech.WMin)
	if p.sizeSensitivity(a, 0.25) {
		t.Error("20 GHz accepted")
	}
}

func TestJointSensitivityComparable(t *testing.T) {
	if testing.Short() {
		t.Skip("greedy sizing across the voltage grid is slow")
	}
	p := problemFor(t, s298(t), 0.5)
	budget, err := p.OptimizeJoint(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	o := DefaultOptions()
	o.M = 8 // the greedy sizer is costlier per point
	sens, err := p.OptimizeJointSensitivity(o)
	if err != nil {
		t.Fatal(err)
	}
	if !sens.Feasible {
		t.Fatal("sensitivity result infeasible")
	}
	if sens.CriticalDelay > p.CycleBudget() {
		t.Error("cycle time violated")
	}
	// The two sizing philosophies should land within ~2x of each other —
	// they search the same (Vdd, Vt) space with different width policies.
	r := sens.Energy.Total() / budget.Energy.Total()
	if r > 2.0 || r < 0.5 {
		t.Errorf("sensitivity/budget energy ratio %v outside [0.5, 2]", r)
	}
	t.Logf("budget-driven %.3e J vs sensitivity-driven %.3e J (ratio %.2f)",
		budget.Energy.Total(), sens.Energy.Total(), r)
}

// fullRescoreSizing is the sensitivity sizer without the move-score cache:
// every candidate is re-scored from scratch, both sides through localDelay,
// on every iteration. It returns the verdict and the widened gates in order.
func fullRescoreSizing(p *Problem, a *design.Assignment, step float64) (bool, []int) {
	budget := p.CycleBudget()
	cs, err := p.C.CSR()
	if err != nil {
		return false, nil
	}
	ids, err := p.C.LogicIDs()
	if err != nil {
		return false, nil
	}
	p.Eval.Bind(a)
	defer p.Eval.Unbind()
	var seq []int
	const maxIters = 4000
	for iter := 0; iter < maxIters; iter++ {
		cd := p.Eval.BoundCriticalDelay()
		if cd <= budget {
			return true, seq
		}
		if math.IsInf(cd, 1) {
			return false, seq
		}
		slack := p.Eval.BoundSlacks(budget)
		td := p.Eval.BoundDelays()
		bestGate, bestGain := -1, 0.0
		for _, id := range ids {
			if slack[id] > 0 || a.W[id] >= p.Tech.WMax {
				continue
			}
			old := a.W[id]
			next := min(old*(1+step), p.Tech.WMax)
			before := p.localDelay(cs, a, id, td, -1, 0)
			after := p.localDelay(cs, a, id, td, id, next)
			gain := (before - after) / (next - old)
			if gain > bestGain {
				bestGain, bestGate = gain, id
			}
		}
		if bestGate < 0 {
			return false, seq
		}
		seq = append(seq, bestGate)
		p.Eval.SetWidth(bestGate, min(a.W[bestGate]*(1+step), p.Tech.WMax))
	}
	return p.Eval.BoundCriticalDelay() <= budget, seq
}

// cachedSizingMoves replays sizeSensitivity's loop move by move and returns
// the widened gates in order. Before every pick it checks each fresh cached
// gain against a from-scratch localDelay score, and each candidate's
// tracked-delay "before" sum against localDelay with no override.
func cachedSizingMoves(t *testing.T, p *Problem, a *design.Assignment, step float64) []int {
	t.Helper()
	budget := p.CycleBudget()
	cs, err := p.C.CSR()
	if err != nil {
		t.Fatal(err)
	}
	p.Eval.Bind(a)
	defer p.Eval.Unbind()
	sc := &moveScores{gain: make([]float64, p.C.N()), fresh: make([]bool, p.C.N())}
	var seq []int
	for iter := 0; iter < 4000; iter++ {
		cd := p.Eval.BoundCriticalDelay()
		if cd <= budget || math.IsInf(cd, 1) {
			break
		}
		td := p.Eval.BoundDelays()
		for _, id := range p.logicIDs {
			next := min(a.W[id]*(1+step), p.Tech.WMax)
			tracked := td[id]
			for _, f := range cs.Fanins(int32(id)) {
				if cs.IsLogic[f] {
					tracked += td[f]
				}
			}
			before := p.localDelay(cs, a, id, td, -1, 0)
			if tracked != before {
				t.Fatalf("move %d gate %d: tracked before-sum %v, localDelay %v", iter, id, tracked, before)
			}
			if !sc.fresh[id] || a.W[id] >= p.Tech.WMax {
				continue
			}
			want := (before - p.localDelay(cs, a, id, td, id, next)) / (next - a.W[id])
			if sc.gain[id] != want {
				t.Fatalf("move %d gate %d: cached gain %v, from scratch %v", iter, id, sc.gain[id], want)
			}
		}
		g := p.sizingMove(cs, a, step, budget, sc)
		if g < 0 {
			break
		}
		seq = append(seq, g)
	}
	return seq
}

// TestSensitivityScoreCacheMatchesFullRescoring pins the move-score cache to
// the full-rescoring loop it replaces: on three suite shapes and several
// operating points, one of which the sizer cannot meet, both pick the same
// gate sequence and reach the same verdict with bit-identical widths.
func TestSensitivityScoreCacheMatchesFullRescoring(t *testing.T) {
	points := []struct{ vdd, vts float64 }{{0.8, 0.3}, {0.6, 0.2}, {0.6, 0.3}, {0.5, 0.25}}
	infeasible := 0
	for _, name := range []string{"s298", "s344", "s510"} {
		c, err := netgen.Profile(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, pt := range points {
			ref, got := problemFor(t, c, 0.5), problemFor(t, c, 0.5)
			aRef := design.Uniform(c.N(), pt.vdd, pt.vts, ref.Tech.WMin)
			okRef, seqRef := fullRescoreSizing(ref, aRef, 0.25)

			aGot := design.Uniform(c.N(), pt.vdd, pt.vts, got.Tech.WMin)
			if okGot := got.sizeSensitivity(aGot, 0.25); okGot != okRef {
				t.Errorf("%s at %v: verdict %v, full rescoring %v", name, pt, okGot, okRef)
			}
			if !slices.Equal(aGot.W, aRef.W) {
				t.Errorf("%s at %v: widths differ from full rescoring", name, pt)
			}
			aSeq := design.Uniform(c.N(), pt.vdd, pt.vts, got.Tech.WMin)
			if seq := cachedSizingMoves(t, got, aSeq, 0.25); !slices.Equal(seq, seqRef) {
				t.Errorf("%s at %v: %d moves differ from full rescoring's %d", name, pt, len(seq), len(seqRef))
			}
			if len(seqRef) == 0 {
				t.Errorf("%s at %v: no moves; the point does not exercise the cache", name, pt)
			}
			if !okRef {
				infeasible++
			}
			t.Logf("%s at %v: %d moves, meets timing %v", name, pt, len(seqRef), okRef)
		}
	}
	if infeasible == 0 {
		t.Error("no operating point the sizer cannot meet")
	}
}

// TestMoveScoreStalenessCoversReads perturbs one input of the move scores at
// a time — a gate's width with the delays held, or one delay with the widths
// held — and checks that every score the perturbation moves is marked stale.
// Engine edits re-time most of what a width change touches, which hides the
// width half of the set from the sizing-sequence test above.
func TestMoveScoreStalenessCoversReads(t *testing.T) {
	p := problemFor(t, s298(t), 0.5)
	cs, err := p.C.CSR()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	a := design.Uniform(p.C.N(), 0.6, 0.3, p.Tech.WMin)
	for _, id := range p.logicIDs {
		a.W[id] = p.Tech.WMin * (1 + 3*rng.Float64())
	}
	td := slices.Clone(p.Eval.Delays(a))
	scores := func() []float64 {
		s := make([]float64, p.C.N())
		for _, id := range p.logicIDs {
			s[id] = p.moveGain(cs, a, id, td, 0.25)
		}
		return s
	}
	base := scores()
	check := func(what string, x int, mark func(*moveScores)) {
		sc := &moveScores{fresh: make([]bool, p.C.N())}
		for i := range sc.fresh {
			sc.fresh[i] = true
		}
		mark(sc)
		moved := 0
		for id, s := range scores() {
			if s != base[id] {
				moved++
				if sc.fresh[id] {
					t.Fatalf("%s of gate %d moves the score of gate %d, left fresh", what, x, id)
				}
			}
		}
		if moved == 0 {
			t.Fatalf("%s of gate %d moves no score", what, x)
		}
	}
	for _, x := range p.logicIDs {
		w := a.W[x]
		a.W[x] *= 1.1
		check("width", x, func(sc *moveScores) { sc.widened(cs, x) })
		a.W[x] = w
		d := td[x]
		td[x] *= 1.1
		check("delay", x, func(sc *moveScores) { sc.retimed(cs, []int{x}) })
		td[x] = d
	}
}

// TestSensitivityProbesPerEdit pins the sizer's work at one operating point
// by equality: accepted moves (incremental edits), gates re-timed by them
// and width probes. With every candidate re-scored on every iteration, s298
// here costs 450.6 width probes per edit; with the move-score cache it costs
// 55.5, so a bypassed cache moves the probe pin eightfold. A change that
// moves a pin on purpose updates it here and says why.
func TestSensitivityProbesPerEdit(t *testing.T) {
	const (
		wantEdits  = 507
		wantDirty  = 10383
		wantProbes = 28155
	)
	p := problemFor(t, s298(t), 0.5)
	a := design.Uniform(p.C.N(), 0.45, 0.3, p.Tech.WMin)
	m := p.Eval.Metrics()
	m.Reset()
	if !p.sizeSensitivity(a, 0.25) {
		t.Fatal("sizer failed at the gate's operating point")
	}
	t.Logf("%d edits, %d dirty gates, %d width probes (%.1f per edit)",
		m.IncrementalEdits, m.DirtyGates, m.WidthProbes, float64(m.WidthProbes)/float64(max(m.IncrementalEdits, 1)))
	if m.IncrementalEdits != wantEdits || m.DirtyGates != wantDirty || m.WidthProbes != wantProbes {
		t.Errorf("edits/dirty/probes = %d/%d/%d, pinned %d/%d/%d",
			m.IncrementalEdits, m.DirtyGates, m.WidthProbes, wantEdits, wantDirty, wantProbes)
	}
}
