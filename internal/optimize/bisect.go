package optimize

// MinSatisfying finds the approximately smallest x in r for which pred(x) is
// true, assuming pred is monotone non-decreasing in x (false below some
// boundary, true above). It performs the given number of bisection steps.
// The second result is false when even r.Hi fails the predicate; the first
// result is then r.Hi. When r.Lo already satisfies the predicate it returns
// r.Lo. The returned x always satisfies pred (when ok).
func MinSatisfying(r Range, steps int, pred func(float64) bool) (float64, bool) {
	if !pred(r.Hi) {
		return r.Hi, false
	}
	if pred(r.Lo) {
		return r.Lo, true
	}
	lo, hi := r.Lo, r.Hi // invariant: pred(lo) = false, pred(hi) = true
	for i := 0; i < steps; i++ {
		mid := lo + (hi-lo)/2
		if pred(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, true
}

// MinBelowHyperbolic returns exactly what MinSatisfying(r, steps, pred)
// returns for pred(x) = f(x) ≤ target, f non-increasing, but when f is close
// to a hyperbola A + B/x on r it calls f at most three times (r.Lo and the two
// ends of the final cell) instead of steps+1. fHi must be f(r.Hi): the caller
// supplies it, so a second search over the same f with a relaxed target does
// not pay for it again.
//
// The endpoint values pin the hyperbola through (r.Lo, f(r.Lo)) and
// (r.Hi, fHi); every bisection decision is replayed on it without calling f,
// and the final cell (lo, hi] is then checked for real: pred(lo) false and
// pred(hi) true, skipping an end that never moved off its known endpoint.
// Under the monotonicity MinSatisfying already assumes, a replayed step that
// moved hi down to mid saw a real pred(mid) true (mid ≥ hi) and one that moved
// lo up to mid a real pred(mid) false (mid ≤ lo), so plain bisection takes the
// same path to the same cell. When the check fails the search reruns as plain
// MinSatisfying and fellBack reports it.
func MinBelowHyperbolic(r Range, steps int, f func(float64) float64, fHi, target float64) (x float64, ok, fellBack bool) {
	if !(fHi <= target) {
		return r.Hi, false, false
	}
	fLo := f(r.Lo)
	if fLo <= target {
		return r.Lo, true, false
	}
	b := (fLo - fHi) / (1/r.Lo - 1/r.Hi)
	a := fHi - b/r.Hi
	lo, hi := r.Lo, r.Hi
	loMoved, hiMoved := false, false
	for i := 0; i < steps; i++ {
		mid := lo + (hi-lo)/2
		if a+b/mid <= target {
			hi, hiMoved = mid, true
		} else {
			lo, loMoved = mid, true
		}
	}
	if (loMoved && f(lo) <= target) || (hiMoved && !(f(hi) <= target)) {
		x, ok = MinSatisfying(r, steps, func(x float64) bool { return f(x) <= target })
		return x, ok, true
	}
	return hi, true, false
}
