// Command perfbench is cmosopt's end-to-end benchmark. It generates its
// inputs from a seed, drives the optimizer through its public entry points
// (netgen, core.NewProblem, the Problem optimizers, the eval.Engine API, and
// an in-process serve.Server reached through serve.Client), checks every
// output, and prints the measured metrics. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload suite --seed 1 --seconds 20 --trace 0
//	perfbench --workload all --seed 7              # every workload in turn
//	perfbench --record perfbench/reference.json    # re-record default-seed hashes
//
// With --trace 0 the metrics are the end-to-end set; with --trace 1 the run
// also records spans and engine counters and prints the per-layer set. See
// README.md in this directory for the workloads and metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the optimizer sees; every workload
// reports all of them (see README.md for what each means per workload).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"optimize_cpu_s", "s"},
	{"live_bytes_per_gate", "B"},
}

// perLayer are the traced run's metrics. A layer a workload does not
// exercise reports 0.
var perLayer = []metricDef{
	{"optimize_s", "s"},
	{"job_ms_p50", "ms"},
	{"job_ms_p90", "ms"},
	{"hit_ms_p50", "ms"},
	{"hit_ms_p90", "ms"},
	{"miss_ms_p50", "ms"},
	{"miss_ms_p90", "ms"},
	{"max_rps", "req/s"},
	{"netgen.generate_ms", "ms"},
	{"circuit.combinational_ms", "ms"},
	{"circuit.parse_ms", "ms"},
	{"activity.propagate_ms", "ms"},
	{"timing.analysis_ms", "ms"},
	{"timing.budget_ms", "ms"},
	{"core.elaborate_ms", "ms"},
	{"eval.probe_ns", "ns"},
	{"eval.sweep_ns_per_gate", "ns"},
	{"eval.allocs_per_sweep", "count"},
	{"eval.edit_ns_per_dirty_gate", "ns"},
	{"eval.dirty_gates_per_edit", "count"},
	{"eval.coeff_hit_ratio", "ratio"},
	{"eval.gate_delay_calls", "count"},
	{"eval.width_probes", "count"},
	{"eval.full_delay_sweeps", "count"},
	{"eval.full_energy_sweeps", "count"},
	{"eval.incremental_edits", "count"},
	{"eval.coeff_misses", "count"},
	{"core.circuit_evals", "count"},
	{"core.probes_per_gate_per_solve", "count"},
	{"core.points_per_vdd_level", "count"},
	{"core.widths_self_frac", "ratio"},
	{"serve.submit_ms_p50", "ms"},
	{"serve.run_ms_p50", "ms"},
	{"serve.queue_wait_ms_p90", "ms"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.rejected", "count"},
	{"serve.gen_late_ms_max", "ms"},
	{"cli.render_us", "us"},
	{"obs.trace_overhead_frac", "ratio"},
}

// runCfg is one workload invocation.
type runCfg struct {
	seed    int64
	seconds float64 // measuring time
	passes  int     // > 0: run exactly this many passes, untimed (recording)
	traced  bool
}

// result is everything one workload run measured and checked.
type result struct {
	workload   string
	values     map[string]float64
	attempted  int
	failed     int
	infeasible int
	flagged    int      // of infeasible: a design returned with Feasible=false
	hashes     []string // per-problem result hashes, in solve order
	errs       []string // correctness failures
	lines      []string // report text
	gates      int      // logic gates of the workload's largest circuit
	workingSet float64  // bytes live for that circuit's elaborated problem
}

func newResult(workload string) *result {
	return &result{workload: workload, values: make(map[string]float64)}
}

func (r *result) logf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// fail records a correctness failure; it counts as a failed operation.
func (r *result) fail(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
	r.failed++
}

type workload struct {
	name, why string
	run       func(runCfg) *result
}

var workloads = []workload{
	{"suite", "8 ISCAS'89-shaped circuits x 2 activities, joint + baseline: compute-bound, fits in L2", runSuite},
	{"scale", "one 40k-gate s100k-shaped circuit, one joint run per pass: working set several times L2", runScale},
	{"sizing", "TILOS sensitivity sizing: the engine's incremental edit path", runSizing},
	{"serve", "open-loop optimize requests through the HTTP service: cache hits and misses at fixed rates", runServe},
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "suite, scale, sizing, serve, or all")
	seed := fs.Int64("seed", defaultSeed, "input seed")
	seconds := fs.Float64("seconds", 20, "measuring time per workload")
	trace := fs.Int("trace", 0, "1 records spans and prints per-layer metrics")
	record := fs.String("record", "", "write the default seed's result hashes to this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *record != "" {
		if err := recordReference(*record); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	var todo []workload
	for _, w := range workloads {
		if *name == w.name || *name == "all" {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload suite|scale|sizing|serve|all, --seconds > 0, --trace 0|1\n")
		return 2
	}
	ref, err := loadReference()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	code := 0
	for _, w := range todo {
		cfg := runCfg{seed: *seed, seconds: *seconds, traced: *trace == 1}
		r := w.run(cfg)
		if *seed == ref.Seed {
			for _, msg := range compareHashes(w.name, r.hashes, ref.Hashes[w.name]) {
				r.fail("%s", msg)
			}
		}
		runCanary(r, ref)
		if !emit(stdout, r, cfg) {
			code = 1
		}
	}
	return code
}

// emit prints the report and the JSON result line; it returns whether the
// run was correct.
func emit(out io.Writer, r *result, cfg runCfg) bool {
	fmt.Fprintf(out, "== workload %s  seed %d  seconds %g  trace %v\n", r.workload, cfg.seed, cfg.seconds, cfg.traced)
	for _, l := range fingerprint(r) {
		fmt.Fprintln(out, l)
	}
	for _, l := range r.lines {
		fmt.Fprintln(out, l)
	}
	fmt.Fprintf(out, "ops attempted %d  failed %d  infeasible %d (%d returned a design flagged Feasible=false)\n",
		r.attempted, r.failed, r.infeasible, r.flagged)
	for _, e := range r.errs {
		fmt.Fprintln(out, "CHECK FAILED:", e)
	}
	for _, set := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range set {
			if v, ok := r.values[d.name]; ok {
				fmt.Fprintf(out, "metric %-32s %14.6g %s\n", d.name, v, d.unit)
			}
		}
	}

	want := endToEnd
	if cfg.traced {
		want = perLayer
	}
	type metricOut struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metricOut)}
	var missing []string
	for _, d := range want {
		v := r.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) || (!cfg.traced && v <= 0) {
			missing = append(missing, d.name)
			v = 0
		}
		line.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	if len(missing) > 0 {
		fmt.Fprintf(out, "CHECK FAILED: no measurement for %s\n", strings.Join(missing, ", "))
	}
	line.Correct = len(r.errs) == 0 && len(missing) == 0 && r.attempted > 0
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(out, "perfbench:", err)
		return false
	}
	fmt.Fprintln(out, string(b))
	return line.Correct
}
