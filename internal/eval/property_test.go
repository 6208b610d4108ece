package eval

import (
	"math"
	"math/rand"
	"testing"

	"cmosopt/internal/design"
)

// relClose reports whether got matches want within 1e-12 relative tolerance
// (infinities of the same sign match exactly — unswitchable operating points
// have +Inf delay).
func relClose(got, want float64) bool {
	if got == want {
		return true
	}
	if math.IsInf(want, 0) || math.IsInf(got, 0) || math.IsNaN(want) || math.IsNaN(got) {
		return false
	}
	scale := math.Max(math.Abs(got), math.Abs(want))
	return math.Abs(got-want) <= 1e-12*scale
}

// TestIncrementalMatchesFull drives random width edits against bound engines
// on random circuits, interleaved with re-binds after per-gate threshold,
// global supply and uniform threshold moves, and checks after every step
// that the incrementally maintained state matches a from-scratch
// recomputation within 1e-12 relative tolerance: per-gate delays, arrivals,
// critical delay, slacks and the energy breakdown.
func TestIncrementalMatchesFull(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			t.Parallel()
			c, eng, dm, pm := buildCase(t, 100+seed)
			tech := eng.Tech
			rng := rand.New(rand.NewSource(seed))

			a := design.Uniform(c.N(), 1.5, 0.35, 4)
			eng.Bind(a)

			randW := func() float64 {
				return tech.WMin + rng.Float64()*(tech.WMax-tech.WMin)
			}
			randVts := func() float64 {
				return tech.VtsMin + rng.Float64()*(tech.VtsMax-tech.VtsMin)
			}
			randVdd := func() float64 {
				return tech.VddMin + rng.Float64()*(tech.VddMax-tech.VddMin)
			}

			for step := 0; step < 120; step++ {
				id := rng.Intn(c.N())
				switch rng.Intn(6) {
				case 0, 1, 2: // width edits dominate real optimizer traffic
					eng.SetWidth(id, randW())
				case 3:
					a.Vts[id] = randVts()
					eng.Bind(a)
				case 4:
					a.Vdd = randVdd()
					eng.Bind(a)
				default:
					a.SetVts(randVts())
					eng.Bind(a)
				}

				// Reference: the pure model evaluators, from scratch.
				wantArr, wantTd := dm.Arrivals(a)
				gotTd, gotArr := eng.BoundDelays(), eng.curArr
				for i := range wantTd {
					if !relClose(gotTd[i], wantTd[i]) {
						t.Fatalf("seed %d step %d: gate %d delay %v, want %v", seed, step, i, gotTd[i], wantTd[i])
					}
					if !relClose(gotArr[i], wantArr[i]) {
						t.Fatalf("seed %d step %d: gate %d arrival %v, want %v", seed, step, i, gotArr[i], wantArr[i])
					}
				}
				if got, want := eng.BoundCriticalDelay(), dm.CriticalDelay(a); !relClose(got, want) {
					t.Fatalf("seed %d step %d: critical delay %v, want %v", seed, step, got, want)
				}
				gotE, wantE := eng.BoundEnergy(), pm.Total(a)
				if !relClose(gotE.Static, wantE.Static) || !relClose(gotE.Dynamic, wantE.Dynamic) {
					t.Fatalf("seed %d step %d: energy %+v, want %+v", seed, step, gotE, wantE)
				}
				if step%10 == 0 {
					T := 5e-9
					wantSl := dm.Slacks(a, T)
					gotSl := eng.BoundSlacks(T)
					for i := range wantSl {
						if !relClose(gotSl[i], wantSl[i]) {
							t.Fatalf("seed %d step %d: gate %d slack %v, want %v", seed, step, i, gotSl[i], wantSl[i])
						}
					}
				}
			}
		})
	}
}

// TestIncrementalSkipsUntouchedCone checks the economics, not just the
// answer: a width edit at a primary-output gate must not re-evaluate the
// whole circuit.
func TestIncrementalSkipsUntouchedCone(t *testing.T) {
	c, eng, _, _ := buildCase(t, 42)
	a := design.Uniform(c.N(), 1.5, 0.35, 4)
	eng.Bind(a)

	// Pick a PO-driving gate with no internal fanout: its cone is itself plus
	// its logic fanins.
	target := -1
	for _, id := range c.POs {
		if c.Gate(id).IsLogic() && len(c.Gate(id).Fanout) == 0 {
			target = id
			break
		}
	}
	if target < 0 {
		t.Skip("no fanout-free PO gate in this circuit")
	}
	eng.Metrics().Reset()
	eng.SetWidth(target, a.W[target]*2)
	m := eng.Metrics()

	// Upper bound: everything fanout-reachable from the edited gate or its
	// logic fanins (whose loads changed). Anything beyond that would mean the
	// engine re-evaluated gates the edit cannot influence.
	reach := make([]bool, c.N())
	var mark func(id int)
	mark = func(id int) {
		if reach[id] {
			return
		}
		reach[id] = true
		for _, f := range c.Gate(id).Fanout {
			mark(f)
		}
	}
	mark(target)
	cone := int64(0)
	for _, f := range c.Gate(target).Fanin {
		if c.Gate(f).IsLogic() {
			mark(f)
		}
	}
	for id, r := range reach {
		if r && c.Gate(id).IsLogic() {
			cone++
		}
	}
	if m.DirtyGates > cone {
		t.Errorf("edit at sink gate dirtied %d gates, cone bound is %d", m.DirtyGates, cone)
	}
	if m.GateDelayCalls > cone {
		t.Errorf("edit at sink gate cost %d delay calls, cone bound is %d", m.GateDelayCalls, cone)
	}
	if cone >= int64(c.NumLogic()) {
		t.Logf("cone covers the whole circuit; bound is vacuous for this seed")
	}
	if m.FullDelaySweeps != 0 {
		t.Errorf("incremental edit triggered %d full sweeps", m.FullDelaySweeps)
	}
}

// TestBoundRetimedMatchesDelayDiff checks BoundRetimed against a snapshot
// diff: after every random width edit on a bound s298 assignment, the gates
// it reports are exactly those whose tracked delay changed, each once, and a
// same-width edit reports none.
func TestBoundRetimedMatchesDelayDiff(t *testing.T) {
	eng, n := levelizedCase(t, "s298", 0)
	tech := eng.Tech
	rng := rand.New(rand.NewSource(7))
	a := design.Uniform(n, 1.2, 0.25, tech.WMin)
	eng.Bind(a)
	if got := eng.BoundRetimed(); len(got) != 0 {
		t.Fatalf("fresh binding reports re-timed gates %v", got)
	}
	before := make([]float64, n)
	seen := make([]bool, n)
	retimed := 0
	for step := 0; step < 400; step++ {
		id := rng.Intn(n)
		w := tech.WMin + rng.Float64()*(tech.WMax-tech.WMin)
		if step%7 == 0 {
			w = a.W[id] // a same-width edit changes nothing
		}
		copy(before, eng.BoundDelays())
		eng.SetWidth(id, w)
		got, after := eng.BoundRetimed(), eng.BoundDelays()
		retimed += len(got)
		clear(seen)
		for _, g := range got {
			if seen[g] {
				t.Fatalf("step %d: gate %d reported twice in %v", step, g, got)
			}
			seen[g] = true
		}
		for g := range after {
			if changed := after[g] != before[g]; changed != seen[g] {
				t.Fatalf("step %d (gate %d, w %v): gate %d delay %v -> %v, reported %v",
					step, id, w, g, before[g], after[g], seen[g])
			}
		}
		if step%7 == 0 && len(got) != 0 {
			t.Fatalf("step %d: same-width edit reports %v", step, got)
		}
	}
	if retimed == 0 {
		t.Fatal("no edit re-timed any gate; the check is vacuous")
	}
}
