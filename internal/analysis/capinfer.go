package analysis

// capinfer infers each automaton's mod-thresh footprint: the set of
// thresholds and moduli its transition function observes the
// neighbourhood with. Theorem 3.7 says a symmetric finite-state
// function is determined by counting each state up to a threshold and
// modulo a fixed base; the footprint is that normal form read off the
// source. `fssga-vet -contracts` emits the table, and internal/mc
// cross-checks it against the saturation bounds its enumerator derives
// by running the real Step over all small multisets — static and
// dynamic verification of the same theorem meeting in the middle.
//
// It is a report, not an analyzer: a cap that cannot be constant-folded
// marks the footprint unbounded, and symcontract flags that cap at the
// same position.

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
)

// A Contract is one automaton's statically inferred observation
// footprint.
type Contract struct {
	// Automaton is the transition function's fully qualified name,
	// e.g. "(repro/internal/algo/twocolor.automaton).Step".
	Automaton string `json:"automaton"`
	File      string `json:"file"`
	Line      int    `json:"line"`
	// Thresh lists the distinct saturation thresholds observed:
	// Count/CountState/DegreeCapped caps, k+1 for Exactly(k), 1 for
	// the boolean observations (Any, None, All, AnyState, Empty).
	Thresh []int `json:"thresh"`
	// Mods lists the distinct CountMod moduli.
	Mods []int `json:"mods"`
	// ForEach is set when the function folds over the full multiset
	// (or lets the view escape), i.e. its footprint is the entire
	// observation rather than a finite cap set.
	ForEach bool `json:"forEach"`
	// Bounded is false when some cap failed constant folding, so the
	// static footprint is not a proof of Theorem 3.7 form.
	Bounded bool `json:"bounded"`
}

// String renders the contract in one line for fssga-vet -contracts.
func (c Contract) String() string {
	extra := ""
	if c.ForEach {
		extra += " forEach"
	}
	if !c.Bounded {
		extra += " UNBOUNDED"
	}
	return fmt.Sprintf("%s: thresh=%v mods=%v%s (%s:%d)",
		c.Automaton, c.Thresh, c.Mods, extra, c.File, c.Line)
}

// threshFor maps the boolean observations to their implied threshold.
var threshFor = map[string]int{
	"Empty":    1,
	"Any":      1,
	"AnyState": 1,
	"None":     1,
	"All":      1,
}

// InferContracts runs the footprint inference over units,
// returning contracts for every named Step-shaped function, sorted by
// automaton name and deduplicated across unit variants.
func InferContracts(units []*Unit) []Contract {
	var out []Contract
	seen := map[string]bool{}
	for _, u := range units {
		for _, s := range u.index().steps {
			if s.decl == nil {
				continue // literals have no stable contract name
			}
			c := inferOne(u.Fset, u.Info, s.fn, s.decl)
			if !seen[c.Automaton] {
				seen[c.Automaton] = true
				out = append(out, c)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Automaton < out[j].Automaton })
	return out
}

// inferOne reads one transition function's footprint.
func inferOne(fset *token.FileSet, info *types.Info, fn *types.Func, decl *ast.FuncDecl) Contract {
	pos := fset.Position(decl.Name.Pos())
	c := Contract{
		Automaton: fn.FullName(),
		File:      pos.Filename,
		Line:      pos.Line,
		Bounded:   true,
	}
	thresh := map[int]bool{}
	mods := map[int]bool{}
	sig := fn.Type().(*types.Signature)
	viewObj := sig.Params().At(1)

	ast.Inspect(decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name, ok := isViewMethod(info, call)
		if !ok {
			return true
		}
		if name == "ForEach" {
			c.ForEach = true
			return true
		}
		if t, ok := threshFor[name]; ok {
			thresh[t] = true
			return true
		}
		idx, known := observationCapArg[name]
		if !known || idx < 0 || idx >= len(call.Args) {
			return true
		}
		arg := call.Args[idx]
		v, isConst := intConstant(info, arg)
		if !isConst {
			c.Bounded = false
			return true
		}
		switch name {
		case "CountMod":
			mods[v] = true
		case "Exactly":
			thresh[v+1] = true
		default: // Count, CountState, DegreeCapped
			thresh[v] = true
		}
		return true
	})

	// A view that escapes into another call or variable is observed in
	// full: fold semantics, whatever the callee does with it.
	if viewObj != nil && viewEscapes(info, decl.Body, viewObj) {
		c.ForEach = true
	}

	c.Thresh = sortedKeys(thresh)
	c.Mods = sortedKeys(mods)
	return c
}

// intConstant folds e to an int constant.
func intConstant(info *types.Info, e ast.Expr) (int, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil {
		return 0, false
	}
	i, exact := constant.Int64Val(constant.ToInt(tv.Value))
	if !exact {
		return 0, false
	}
	return int(i), true
}

// viewEscapes reports a use of the view parameter other than as the
// receiver of an observation-method call.
func viewEscapes(info *types.Info, body *ast.BlockStmt, viewObj types.Object) bool {
	parents := parentMap(body)
	escaped := false
	ast.Inspect(body, func(n ast.Node) bool {
		if escaped {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok || info.Uses[id] != viewObj {
			return true
		}
		// Sanctioned shape: view.Method(...) where Method is an
		// observation — the ident's parent chain is SelectorExpr
		// whose parent is the CallExpr's Fun.
		if sel, ok := parents[n].(*ast.SelectorExpr); ok && sel.X == n {
			if call, ok := parents[ast.Node(sel)].(*ast.CallExpr); ok && call.Fun == ast.Expr(sel) {
				if _, isObs := isViewMethod(info, call); isObs {
					return true
				}
			}
		}
		escaped = true
		return false
	})
	return escaped
}

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
