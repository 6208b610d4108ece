package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Determinism enforces the PR 2 invariant: optimizer outputs are
// byte-identical at any worker count. In the deterministic packages —
// internal/core, internal/eval, internal/parallel, internal/optimize, plus
// internal/netgen and internal/report whose outputs (generated circuits,
// aggregated tables) are part of the same byte-identical guarantee,
// internal/circuit and internal/timing, whose CSR core and levelized sweeps
// every deterministic result is computed over, and internal/serve, whose
// responses must be byte-identical to the offline tools' output (serving
// latency is measured from outside the server, by perfbench) — it
// flags, outside *_test.go files:
//
//   - time.Now / time.Since: wall-clock must never influence a result.
//     Instrumentation sites that time work for obs histograms are the one
//     legitimate use; they carry //cmosvet:allow determinism with a reason.
//   - the global math/rand source (rand.Intn, rand.Float64, rand.Shuffle,
//     ...): randomness must come from a seeded per-die/per-lane substream,
//     i.e. a *rand.Rand built with rand.New(rand.NewSource(seed)).
//     rand.New/rand.NewSource themselves are the approved constructors.
//   - map iteration whose element order escapes: a `range` over a map that
//     appends key/value-derived data to a slice with no subsequent sort of
//     that slice in the same function, or that accumulates floating-point
//     values (float addition is not associative, so map order changes the
//     sum's final bits).
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "deterministic packages must not consult wall-clock, global rand, or map iteration order",
	Run:  runDeterminism,
}

// deterministicPkgs are the packages whose outputs the worker-invariance
// tests lock byte-for-byte.
var deterministicPkgs = []string{
	"internal/core", "internal/eval", "internal/parallel", "internal/optimize",
	"internal/netgen", "internal/report", "internal/circuit", "internal/timing",
	"internal/serve",
}

// globalRandFuncs draw from math/rand's package-level source.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true, "Int63": true,
	"Int63n": true, "Uint32": true, "Uint64": true, "Float32": true,
	"Float64": true, "ExpFloat64": true, "NormFloat64": true, "Perm": true,
	"Shuffle": true, "Seed": true, "Read": true, "N": true,
}

func runDeterminism(pass *Pass) error {
	if !pathIn(normalizePkgPath(pass.Pkg.Path()), deterministicPkgs...) {
		return nil
	}
	for _, f := range pass.Files {
		if pass.isTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				path, name, ok := pass.pkgFunc(n)
				if !ok {
					return true
				}
				if path == "time" && (name == "Now" || name == "Since") {
					pass.Reportf(n.Pos(),
						"time.%s in a deterministic package: wall-clock must not influence results; if this only feeds obs instrumentation, annotate with //cmosvet:allow determinism and a reason", name)
				}
				if (path == "math/rand" || path == "math/rand/v2") && globalRandFuncs[name] {
					pass.Reportf(n.Pos(),
						"global rand.%s in a deterministic package: draw from a seeded substream (rand.New(rand.NewSource(seed))) so results are reproducible at any worker count", name)
				}
			case *ast.FuncDecl:
				if n.Body != nil {
					checkMapOrderEscapes(pass, n.Body)
				}
			}
			return true
		})
	}
	return nil
}

// checkMapOrderEscapes walks one function body looking for map ranges whose
// iteration order leaks into an append-built slice that is never sorted, or
// into a floating-point accumulator.
func checkMapOrderEscapes(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := pass.TypesInfo.TypeOf(rng.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		iterVars := rangeVarObjects(pass, rng)
		if len(iterVars) == 0 {
			return true
		}
		ast.Inspect(rng.Body, func(m ast.Node) bool {
			asg, ok := m.(*ast.AssignStmt)
			if !ok {
				return true
			}
			checkMapAppend(pass, body, rng, asg, iterVars)
			checkFloatAccum(pass, asg, iterVars)
			return true
		})
		return true
	})
}

// rangeVarObjects returns the objects of the range's key/value variables.
func rangeVarObjects(pass *Pass, rng *ast.RangeStmt) []types.Object {
	var out []types.Object
	for _, e := range []ast.Expr{rng.Key, rng.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
				out = append(out, obj)
			}
		}
	}
	return out
}

// checkMapAppend flags `s = append(s, <iter-derived>)` inside a map range
// when no later statement in the function sorts s.
func checkMapAppend(pass *Pass, fnBody *ast.BlockStmt, rng *ast.RangeStmt, asg *ast.AssignStmt, iterVars []types.Object) {
	if len(asg.Rhs) != 1 || len(asg.Lhs) != 1 {
		return
	}
	call, ok := asg.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) < 2 {
		return
	}
	fn, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || fn.Name != "append" {
		return
	}
	if b, isBuiltin := pass.TypesInfo.Uses[fn].(*types.Builtin); !isBuiltin || b.Name() != "append" {
		return
	}
	// Order only matters when what is appended depends on the iteration.
	derived := false
	for _, arg := range call.Args[1:] {
		if referencesAny(pass, arg, iterVars) {
			derived = true
		}
	}
	if !derived {
		return
	}
	lhs, ok := asg.Lhs[0].(*ast.Ident)
	if !ok {
		return // appends into fields/elements: out of scope, keep conservative
	}
	slice := pass.TypesInfo.ObjectOf(lhs)
	if slice == nil {
		return
	}
	if sortedAfter(pass, fnBody, rng.End(), slice) {
		return
	}
	pass.Reportf(asg.Pos(),
		"append of map-iteration data to %q with no subsequent sort: element order escapes into the result; sort %q after the loop (or build a map and emit sorted keys)",
		lhs.Name, lhs.Name)
}

// checkFloatAccum flags compound float accumulation (`sum += v`) of
// iteration-derived values: float addition is order-sensitive in the last
// bits, so a map-ordered sum is not byte-stable.
func checkFloatAccum(pass *Pass, asg *ast.AssignStmt, iterVars []types.Object) {
	switch asg.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
	default:
		return
	}
	if len(asg.Lhs) != 1 || len(asg.Rhs) != 1 || !referencesAny(pass, asg.Rhs[0], iterVars) {
		return
	}
	t := pass.TypesInfo.TypeOf(asg.Lhs[0])
	if t == nil {
		return
	}
	if b, ok := t.Underlying().(*types.Basic); !ok || b.Info()&types.IsFloat == 0 {
		return
	}
	pass.Reportf(asg.Pos(),
		"floating-point accumulation in map-iteration order: float arithmetic is not associative, so the sum's bits depend on hash order; iterate a sorted key slice instead")
}

// referencesAny reports whether expr mentions any of the given objects.
func referencesAny(pass *Pass, expr ast.Expr, objs []types.Object) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		o := pass.TypesInfo.ObjectOf(id)
		for _, want := range objs {
			if o == want {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// sortedAfter reports whether any statement after pos in the function body
// passes the slice object to a sort/slices function (sort.Ints(s),
// sort.Slice(s, less), slices.Sort(s), ...).
func sortedAfter(pass *Pass, fnBody *ast.BlockStmt, pos token.Pos, slice types.Object) bool {
	found := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos {
			return true
		}
		path, _, ok := pass.pkgFunc(call)
		if !ok || (path != "sort" && path != "slices") {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == slice {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
