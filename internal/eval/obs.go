package eval

import "cmosopt/internal/obs"

// Observability. An engine optionally carries a sink into an obs.Registry;
// nothing here is ever read back by evaluation, so attaching a sink cannot
// change any result. Two kinds of signals flow out:
//
//   - histograms, recorded live at the instrumentation site (full-sweep
//     latency in delaysInto, dirty-cone drain sizes in propagate). These are
//     wall-clock truth: clones share the sink, so speculative work that the
//     determinism contract excludes from Metrics billing still shows up here;
//   - counters, exported by FlushObs as deltas of the engine's Metrics since
//     the previous flush. The billed Metrics stay the determinism-relevant
//     effort meter; the registry counters mirror them for manifests and
//     expvar without ever being consulted by an algorithm.
//
// The sink pointer is shared by Clone (histograms are concurrency-safe), but
// the flushed baseline is per-engine, so a clone whose Metrics are absorbed
// into its parent does not double-count: clones are never flushed themselves,
// and the parent's next FlushObs covers the absorbed work.

// obsSink holds the registry plus the pre-resolved histograms the hot paths
// record into (resolved once at attach time to keep map lookups off the
// per-sweep path).
type obsSink struct {
	reg     *obs.Registry
	sweepNS *obs.Histogram
	dirty   *obs.Histogram
}

// AttachObs connects the engine to a metrics registry (nil detaches). Only
// work performed after the attach is exported: the flush baseline is set to
// the engine's current Metrics.
func (e *Engine) AttachObs(reg *obs.Registry) {
	if reg == nil {
		e.sink = nil
		return
	}
	e.sink = &obsSink{
		reg:     reg,
		sweepNS: reg.Histogram("eval.full_sweep_ns"),
		dirty:   reg.Histogram("eval.dirty_cone_gates"),
	}
	e.flushed = e.met
}

// FlushObs exports the engine's Metrics growth since the last flush as
// registry counters. No-op without an attached sink, and no-op on
// clones: a clone's Metrics are absorbed into its parent engine by the
// drivers, so only the primary engine flushes — each unit of work is
// exported exactly once.
func (e *Engine) FlushObs() {
	s := e.sink
	if s == nil || !e.primary {
		return
	}
	d, f := e.met, e.flushed
	add := func(name string, v int64) {
		if v != 0 {
			s.reg.Counter(name).Add(v)
		}
	}
	add("eval.gate_delay_calls", d.GateDelayCalls-f.GateDelayCalls)
	add("eval.gate_energy_calls", d.GateEnergyCalls-f.GateEnergyCalls)
	add("eval.full_delay_sweeps", d.FullDelaySweeps-f.FullDelaySweeps)
	add("eval.full_energy_sweeps", d.FullEnergySweeps-f.FullEnergySweeps)
	add("eval.width_probes", d.WidthProbes-f.WidthProbes)
	add("eval.incremental_edits", d.IncrementalEdits-f.IncrementalEdits)
	add("eval.dirty_gates", d.DirtyGates-f.DirtyGates)
	add("eval.coeff_hits", d.CoeffHits-f.CoeffHits)
	add("eval.coeff_misses", d.CoeffMisses-f.CoeffMisses)
	add("eval.width_fit_fallbacks", d.WidthFitFallbacks-f.WidthFitFallbacks)
	e.flushed = d
}
