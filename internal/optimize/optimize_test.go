package optimize

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRangeBasics(t *testing.T) {
	r := Range{2, 6}
	if r.Mid() != 4 || r.Width() != 4 {
		t.Errorf("mid/width = %v/%v", r.Mid(), r.Width())
	}
	if lo := r.Lower(); lo.Lo != 2 || lo.Hi != 4 {
		t.Errorf("Lower = %+v", lo)
	}
	if hi := r.Higher(); hi.Lo != 4 || hi.Hi != 6 {
		t.Errorf("Higher = %+v", hi)
	}
	if r.Clamp(0) != 2 || r.Clamp(9) != 6 || r.Clamp(3) != 3 {
		t.Error("Clamp broken")
	}
	if !r.Contains(2) || !r.Contains(6) || r.Contains(6.1) {
		t.Error("Contains broken")
	}
	if err := r.Validate(); err != nil {
		t.Error(err)
	}
	if err := (Range{3, 1}).Validate(); err == nil {
		t.Error("inverted range accepted")
	}
	if err := (Range{math.NaN(), 1}).Validate(); err == nil {
		t.Error("NaN range accepted")
	}
}

func TestLinspace(t *testing.T) {
	pts := Range{0, 1}.Linspace(5)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	for i := range want {
		if math.Abs(pts[i]-want[i]) > 1e-12 {
			t.Fatalf("linspace = %v", pts)
		}
	}
	if pts := (Range{0, 1}).Linspace(1); len(pts) != 1 || pts[0] != 0.5 {
		t.Errorf("degenerate linspace = %v", pts)
	}
}

func TestMinSatisfying(t *testing.T) {
	// pred: x >= 3.7 on [0,10].
	x, ok := MinSatisfying(Range{0, 10}, 40, func(v float64) bool { return v >= 3.7 })
	if !ok || math.Abs(x-3.7) > 1e-9 {
		t.Errorf("MinSatisfying = %v ok=%v, want ~3.7", x, ok)
	}
	// Never satisfiable.
	if _, ok := MinSatisfying(Range{0, 10}, 40, func(v float64) bool { return false }); ok {
		t.Error("unsatisfiable predicate reported ok")
	}
	// Already satisfied at Lo.
	x, ok = MinSatisfying(Range{5, 10}, 40, func(v float64) bool { return v >= 1 })
	if !ok || x != 5 {
		t.Errorf("lo-satisfied = %v ok=%v", x, ok)
	}
}

func TestMinSatisfyingAlwaysReturnsSatisfying(t *testing.T) {
	f := func(threshRaw float64, steps uint8) bool {
		thresh := math.Mod(math.Abs(threshRaw), 10)
		pred := func(v float64) bool { return v >= thresh }
		x, ok := MinSatisfying(Range{0, 10}, int(steps%30)+1, pred)
		return ok && pred(x)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestMinBelowHyperbolicMatchesMinSatisfying draws random non-increasing f
// (an exact hyperbola, a hyperbola with a small monotone perturbation, an
// exponential, a step) and targets below f(Hi), above f(Lo) and between.
// The closed-form search must return MinSatisfying's exact (x, ok) every
// time; it may call f at most three times unless it fell back, and the
// off-hyperbola shapes must drive it down the fallback path.
func TestMinBelowHyperbolicMatchesMinSatisfying(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	families := []struct {
		name  string
		exact bool
		gen   func(r Range) func(float64) float64
	}{
		{"hyperbola", true, func(Range) func(float64) float64 {
			a, b := rng.Float64(), 0.1+10*rng.Float64()
			return func(x float64) float64 { return a + b/x }
		}},
		{"perturbed", false, func(r Range) func(float64) float64 {
			a, b := rng.Float64(), 0.1+10*rng.Float64()
			eps, c := 1e-3*b/r.Hi, r.Lo+rng.Float64()*r.Width()
			return func(x float64) float64 { return a + b/x - eps*math.Tanh(x-c) }
		}},
		{"exp", false, func(r Range) func(float64) float64 {
			k := (0.2 + 3*rng.Float64()) / r.Width()
			return func(x float64) float64 { return math.Exp(-k * x) }
		}},
		{"step", false, func(r Range) func(float64) float64 {
			s := r.Lo + rng.Float64()*r.Width()
			return func(x float64) float64 {
				if x < s {
					return 2
				}
				return 1
			}
		}},
	}
	for _, fam := range families {
		fallbacks := 0
		for draw := 0; draw < 300; draw++ {
			lo := 0.5 + 2*rng.Float64()
			r := Range{Lo: lo, Hi: lo * (2 + 50*rng.Float64())}
			steps := 1 + rng.Intn(40)
			f := fam.gen(r)
			fLo, fHi := f(r.Lo), f(r.Hi)
			span := fLo - fHi
			for _, target := range []float64{
				fHi - 0.1*span, fHi, fHi + rng.Float64()*span, fLo, fLo + 0.1*span,
			} {
				calls := 0
				counted := func(x float64) float64 { calls++; return f(x) }
				wantX, wantOK := MinSatisfying(r, steps, func(x float64) bool { return f(x) <= target })
				gotX, gotOK, fellBack := MinBelowHyperbolic(r, steps, counted, fHi, target)
				if gotOK != wantOK || math.Float64bits(gotX) != math.Float64bits(wantX) {
					t.Fatalf("%s r=%v steps=%d target=%v: got (%v, %v), MinSatisfying (%v, %v)",
						fam.name, r, steps, target, gotX, gotOK, wantX, wantOK)
				}
				if fellBack {
					fallbacks++
				} else if calls > 3 {
					t.Errorf("%s: %d calls of f without falling back", fam.name, calls)
				}
			}
		}
		if fam.exact && fallbacks != 0 {
			t.Errorf("%s: %d fallbacks on an exact hyperbola", fam.name, fallbacks)
		}
		if !fam.exact && fallbacks == 0 {
			t.Errorf("%s: fallback path never taken", fam.name)
		}
	}
}

func TestGoldenSectionQuadratic(t *testing.T) {
	f := func(x float64) float64 { return (x - 2.5) * (x - 2.5) }
	x, fx := GoldenSection(f, Range{0, 10}, 1e-9, 200)
	if math.Abs(x-2.5) > 1e-6 || fx > 1e-10 {
		t.Errorf("golden = (%v, %v)", x, fx)
	}
}

func TestGoldenSectionEdgeMinimum(t *testing.T) {
	// Monotone increasing: minimum at the left edge.
	x, _ := GoldenSection(func(x float64) float64 { return x }, Range{1, 4}, 1e-9, 200)
	if math.Abs(x-1) > 1e-6 {
		t.Errorf("edge minimum = %v, want 1", x)
	}
}

func TestGoldenSectionSmoothMinimum(t *testing.T) {
	f := func(x float64) float64 { return math.Exp(x) + math.Exp(-2*x) } // min at ln(2)/3
	want := math.Log(2) / 3
	if x, _ := GoldenSection(f, Range{-2, 2}, 1e-10, 300); math.Abs(x-want) > 1e-6 {
		t.Errorf("golden %v want %v", x, want)
	}
}

func TestAnnealQuadratic(t *testing.T) {
	cfg := AnnealConfig{Passes: 2, StepsPerPass: 4000, T0: 10, TFinal: 1e-5, Seed: 3}
	energy := func(x float64) float64 { return (x - 4) * (x - 4) }
	neighbor := func(x float64, rng *rand.Rand) float64 { return x + rng.NormFloat64() }
	best, bestE, err := Anneal(cfg, -20.0, energy, neighbor)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(best-4) > 0.5 || bestE > 0.3 {
		t.Errorf("anneal best = %v (E=%v)", best, bestE)
	}
}

func TestAnnealDeterministicPerSeed(t *testing.T) {
	cfg := DefaultAnnealConfig()
	energy := func(x float64) float64 { return math.Abs(x - 1) }
	neighbor := func(x float64, rng *rand.Rand) float64 { return x + rng.NormFloat64()*0.5 }
	a1, e1, _ := Anneal(cfg, 0.0, energy, neighbor)
	a2, e2, _ := Anneal(cfg, 0.0, energy, neighbor)
	if a1 != a2 || e1 != e2 {
		t.Error("same seed, different result")
	}
}

func TestAnnealRejectsInfCandidates(t *testing.T) {
	cfg := AnnealConfig{Passes: 1, StepsPerPass: 500, T0: 5, TFinal: 1e-3, Seed: 7}
	// Energy is +Inf outside [0, 2]; inside it's (x−1)².
	energy := func(x float64) float64 {
		if x < 0 || x > 2 {
			return math.Inf(1)
		}
		return (x - 1) * (x - 1)
	}
	neighbor := func(x float64, rng *rand.Rand) float64 { return x + rng.NormFloat64() }
	best, bestE, err := Anneal(cfg, 1.5, energy, neighbor)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(bestE, 1) || best < 0 || best > 2 {
		t.Errorf("anneal accepted infeasible state: %v (E=%v)", best, bestE)
	}
}

func TestAnnealConfigValidation(t *testing.T) {
	energy := func(x float64) float64 { return x * x }
	neighbor := func(x float64, rng *rand.Rand) float64 { return x }
	bad := []AnnealConfig{
		{Passes: 0, StepsPerPass: 10, T0: 1, TFinal: 0.1},
		{Passes: 1, StepsPerPass: 0, T0: 1, TFinal: 0.1},
		{Passes: 1, StepsPerPass: 10, T0: 0, TFinal: 0.1},
		{Passes: 1, StepsPerPass: 10, T0: 1, TFinal: 2},
		{Passes: 1, StepsPerPass: 10, T0: 1, TFinal: 0},
	}
	for i, cfg := range bad {
		if _, _, err := Anneal(cfg, 1.0, energy, neighbor); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}
