package main

import (
	_ "embed"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strings"

	"cmosopt/internal/circuit"
	"cmosopt/internal/core"
)

// defaultSeed is the seed whose optimizer outputs reference.json pins.
const defaultSeed = 1

// referenceJSON holds the per-problem result hashes recorded with
// `perfbench -record` on the commit that introduced the benchmark.
//
//go:embed reference.json
var referenceJSON []byte

// reference is the recorded output of the default seed: for each workload,
// the bit-hash of every problem in the order a run solves them.
type reference struct {
	Seed   int64               `json:"seed"`
	Hashes map[string][]string `json:"hashes"`
}

func loadReference() (*reference, error) {
	var r reference
	if err := json.Unmarshal(referenceJSON, &r); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return &r, nil
}

// writeReference stores recorded hashes into path.
func writeReference(path string, hashes map[string][]string) error {
	b, err := json.MarshalIndent(reference{Seed: defaultSeed, Hashes: hashes}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// isInfeasible reports whether err is the optimizers' deterministic "no
// feasible design" answer, which is a result rather than a failure.
func isInfeasible(err error) bool { return err != nil && isInfeasibleMsg(err.Error()) }

func isInfeasibleMsg(msg string) bool { return strings.Contains(msg, "no feasible") }

// resultHash is the bit-hash of one optimizer outcome: Vdd, every gate's
// threshold and width, the energy breakdown and the critical delay, as raw
// float64 bits. An infeasible answer hashes its message, which names the
// circuit, clock and budget.
func resultHash(res *core.Result, err error) string {
	h := fnv.New64a()
	if err != nil {
		fmt.Fprintf(h, "err:%s", err)
		return fmt.Sprintf("%016x", h.Sum64())
	}
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	a := res.Assignment
	put(a.Vdd)
	for _, v := range a.Vts {
		put(v)
	}
	for _, w := range a.W {
		put(w)
	}
	put(res.Energy.Static)
	put(res.Energy.Dynamic)
	put(res.CriticalDelay)
	return fmt.Sprintf("%016x", h.Sum64())
}

// compareHashes checks got against the recorded prefix want and returns one
// message per mismatch. Problems beyond the recorded list are not compared.
func compareHashes(workload string, got, want []string) []string {
	var bad []string
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			bad = append(bad, fmt.Sprintf("%s problem %d: result hash %s, reference %s", workload, i, got[i], want[i]))
		}
	}
	return bad
}

// Recorded problem counts: enough passes that a run several times faster
// than the recording commit still has every problem it solves checked.
const (
	recordSuitePasses  = 80
	recordSizingPasses = 120
)

// recordReference solves the default seed's problems in run order and
// writes their hashes.
func recordReference(path string) error {
	hashes := make(map[string][]string)
	for _, w := range []struct {
		spec   offlineSpec
		passes int
	}{{suiteSpec, recordSuitePasses}, {sizingSpec, recordSizingPasses}, {scaleSpec, 1}} {
		r := runOffline(w.spec, runCfg{seed: defaultSeed, passes: w.passes})
		if len(r.errs) > 0 {
			return fmt.Errorf("%s: %s", w.spec.name, r.errs[0])
		}
		hashes[w.spec.name] = r.hashes
	}
	for i := 0; i < checkSample; i++ {
		c, err := servedNetlist(defaultSeed, i)
		if err != nil {
			return err
		}
		s := solveOffline(circuit.BenchString(c), nil, nil)
		hashes["serve"] = append(hashes["serve"], resultHash(s.res, s.err))
	}
	return writeReference(path, hashes)
}

// runCanary re-solves the default seed's first suite circuit (joint and
// baseline at both activities) and first sizing circuit whatever the run's
// seed, so every run compares optimizer outputs with the recorded ones.
func runCanary(r *result, ref *reference) {
	for _, w := range []struct {
		spec  offlineSpec
		names []string
		acts  []float64
	}{{suiteSpec, suiteProfiles[:1], suiteActivities}, {sizingSpec, sizingProfiles[:1], []float64{0.5}}} {
		b := &elaborator{root: -1}
		if err := b.profilePass(w.names, w.acts, defaultSeed, 0); err != nil {
			r.fail("canary %s: %v", w.spec.name, err)
			continue
		}
		var got []string
		for _, prob := range b.out {
			for _, kind := range w.spec.calls {
				got = append(got, resultHash(optimizeCall(prob.p, kind, w.spec.opts)))
			}
		}
		want := ref.Hashes[w.spec.name]
		if len(want) < len(got) {
			r.fail("canary %s: reference.json records %d hashes, need %d", w.spec.name, len(want), len(got))
			continue
		}
		for _, msg := range compareHashes("canary "+w.spec.name, got, want) {
			r.fail("%s", msg)
		}
	}
}
