package eval

import (
	"sync"
	"testing"

	"cmosopt/internal/design"
)

// Base and step voltages of the concurrent-sweep test, named so the
// per-worker operating points carry the volts the bare literals would drop.
const (
	baseVdd = 1.2  //cmosvet:unit V
	stepVdd = 0.1  //cmosvet:unit V
	baseVts = 0.25 //cmosvet:unit V
	stepVts = 0.02 //cmosvet:unit V
)

func TestCloneMatchesParent(t *testing.T) {
	c, eng, _, _ := buildCase(t, 11)
	a := design.Uniform(c.N(), 1.6, 0.32, 4)
	cl := eng.Clone()

	wantCd, wantE := eng.CriticalDelay(a), eng.Energy(a)
	// The clone's coefficient cache is its own and starts empty: the pair
	// the parent just priced is a miss for the clone, and nothing the clone
	// stores reaches the parent.
	if len(cl.cache) != 0 {
		t.Fatalf("clone starts with %d cached pairs, want 0", len(cl.cache))
	}
	if got := cl.CriticalDelay(a); got != wantCd {
		t.Errorf("clone critical delay %v, parent %v", got, wantCd)
	}
	if got := cl.Energy(a); got != wantE {
		t.Errorf("clone energy %v, parent %v", got, wantE)
	}
	if m := cl.Metrics(); m.CoeffMisses != 1 {
		t.Errorf("clone missed %d times on the parent's pair, want 1", m.CoeffMisses)
	}
	cl.CriticalDelay(design.Uniform(c.N(), 1.7, 0.32, 4))
	if len(eng.cache) != 1 || len(cl.cache) != 2 {
		t.Errorf("parent holds %d pairs, clone %d; want 1 and 2", len(eng.cache), len(cl.cache))
	}
	// Clone metrics start fresh and do not leak into the parent.
	if cl.Metrics().GateDelayCalls == 0 {
		t.Error("clone performed work but counted nothing")
	}
	before := eng.Metrics().GateDelayCalls
	cl.CriticalDelay(a)
	if eng.Metrics().GateDelayCalls != before {
		t.Error("clone work billed to the parent's counters")
	}
}

func TestClonesEvaluateConcurrently(t *testing.T) {
	// N clones sweep different operating points of the same circuit at once;
	// each must agree with a serial evaluation of its own point. Run under
	// -race this checks that clones share no mutable state.
	c, eng, _, _ := buildCase(t, 12)
	const workers = 8
	type out struct{ cd, e float64 }
	got := make([]out, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			cl := eng.Clone()
			a := design.Uniform(c.N(), baseVdd+stepVdd*float64(w%4), baseVts+stepVts*float64(w), 4)
			got[w] = out{cl.CriticalDelay(a), cl.Energy(a).Total()}
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		a := design.Uniform(c.N(), baseVdd+stepVdd*float64(w%4), baseVts+stepVts*float64(w), 4)
		if cd := eng.CriticalDelay(a); cd != got[w].cd {
			t.Errorf("worker %d critical delay %v, serial %v", w, got[w].cd, cd)
		}
		if e := eng.Energy(a).Total(); e != got[w].e {
			t.Errorf("worker %d energy %v, serial %v", w, got[w].e, e)
		}
	}
}
