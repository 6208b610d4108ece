package eval

import "cmosopt/internal/delay"

// Engine cloning.
//
// A single Engine stays single-goroutine (scratch buffers, tracked state,
// coefficient cache), but everything expensive it holds is immutable after
// construction: the circuit, the technology, the activity profile, the
// wiring model, the pure delay/power evaluators and the topological order.
// Clone shares all of that and allocates only fresh scratch and an empty
// coefficient cache, so a worker engine is cheap enough to build one per
// worker in every parallel driver. Clones never share the cache: a worker
// almost never prices a voltage pair another engine already holds (at most a
// few dozen per optimizer run), so a shared map would buy only locking.

// Clone returns a new engine over the same circuit, technology, activity,
// wiring and clock, sharing every immutable structure with the receiver,
// with fresh scratch buffers, counters and an empty coefficient cache. The
// clone is as single-goroutine as any engine — Clone exists so each worker
// of a parallel driver can own one — but clone and parent may run
// concurrently with each other. Incremental-evaluation bindings are not
// carried over: the clone starts unbound.
func (e *Engine) Clone() *Engine {
	n := e.C.N()
	return &Engine{
		C:        e.C,
		Tech:     e.Tech,
		Act:      e.Act,
		Wire:     e.Wire,
		Fc:       e.Fc,
		dm:       e.dm,
		pm:       e.pm,
		cs:       e.cs,
		numLogic: e.numLogic,
		cache:    make(map[coeffKey]delay.Coeffs),
		sink:     e.sink,
		td:       make([]float64, n),
		arr:      make([]float64, n),
	}
}
