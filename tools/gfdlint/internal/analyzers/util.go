// Package analyzers holds gfdlint's project-specific checks: the ones that
// catch a bug no test, go vet or staticcheck catches (DESIGN.md, "Enforced
// invariants", has the seeded bug behind each). See the Doc string on each
// for the contract and the fix.
package analyzers

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/tools/gfdlint/internal/lint"
)

// All returns every gfdlint analyzer.
func All() []*lint.Analyzer {
	return []*lint.Analyzer{MutatorErr}
}

// calleeFunc resolves the function or method a call invokes, nil when the
// call is a conversion or the callee is not a plain func/method.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// declPkgMatches reports whether fn is declared in a package whose import
// path is one of names or ends in "/"+name — so "graph" matches the real
// repro/internal/graph and the fixtures/graph stub alike.
func declPkgMatches(fn *types.Func, names ...string) bool {
	p := fn.Pkg()
	if p == nil {
		return false
	}
	path := p.Path()
	for _, n := range names {
		if path == n || strings.HasSuffix(path, "/"+n) {
			return true
		}
	}
	return false
}

// errorResultIndexes returns the result positions of fn typed `error`.
func errorResultIndexes(fn *types.Func) []int {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	var out []int
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if named, ok := res.At(i).Type().(*types.Named); ok &&
			named.Obj().Pkg() == nil && named.Obj().Name() == "error" {
			out = append(out, i)
		}
	}
	return out
}

// recvNamed returns the name of fn's receiver's named type ("" for
// functions).
func recvNamed(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}
