// Package analyzers holds gfdlint's project-specific checks. Each analyzer
// mechanically enforces one contract that DESIGN.md previously stated only
// in prose; see the Doc string on each for the contract and the fix.
package analyzers

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/tools/gfdlint/internal/lint"
)

// All returns every gfdlint analyzer. General-purpose checks (copylocks,
// shadowing, nilness) are left to go vet and staticcheck, which CI runs.
func All() []*lint.Analyzer {
	return []*lint.Analyzer{
		HotAlloc,
		MutatorErr,
		OverlayStale,
		EpochFlow,
		CtxPoll,
		GoroIsolate,
		LockDiscipline,
	}
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

// pkgEnabled reports whether an analyzed package path is covered by the
// comma-separated suffix list ("*" covers everything).
func pkgEnabled(path, suffixes string) bool {
	for _, s := range strings.Split(suffixes, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		if s == "*" || path == s || strings.HasSuffix(path, "/"+s) || strings.HasSuffix(path, s) {
			return true
		}
	}
	return false
}

// recvIdent returns the receiver identifier of a method call x.M(...),
// nil when the receiver is not a simple identifier.
func recvIdent(call *ast.CallExpr) *ast.Ident {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return nil
	}
	return id
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

// syncMethod resolves a call to a method declared in package sync,
// returning the method and the receiver expression text used as the lock
// identity key.
func syncMethod(info *types.Info, call *ast.CallExpr) (fn *types.Func, key string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return nil, "", false
	}
	fn, isFn := info.Uses[sel.Sel].(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil, "", false
	}
	return fn, types.ExprString(ast.Unparen(sel.X)), true
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
