package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/tools/gfdlint/internal/dataflow"
	"repro/tools/gfdlint/internal/lint"
)

// GoroPkgs is the comma-separated package-path suffix list GoroIsolate
// covers.
var GoroPkgs = "internal/core,internal/match"

// GoroIsolate enforces the worker-isolation contract from the parallel
// engine (core/pool.go): a panic in a worker goroutine must become a
// PanicError on the run, never a process crash, and every goroutine must
// have a join or release path (WaitGroup.Done, a channel send/close/receive,
// a condvar) so the run cannot orphan it. For every `go` statement in the
// engine packages the analyzer checks two things on the goroutine body:
// (1) if the body can panic — determined through per-function can-panic
// summaries over the package call graph, with sync/atomic/context/builtin
// operations considered safe — a deferred recover() guard must be installed
// at goroutine entry, before the first statement that can panic; (2) the
// body must contain join evidence on its non-panicking exits. Pure
// coordination goroutines (a lone select on ctx.Done, a Wait+close pair)
// are provably panic-free and need no guard.
var GoroIsolate = &lint.Analyzer{
	Name:          "goroisolate",
	Doc:           "flags engine goroutines without a recover guard at entry or without a reachable join/release",
	SkipTestFiles: true,
	Run:           runGoroIsolate,
}

func runGoroIsolate(pass *lint.Pass) {
	if !pkgEnabled(pass.Pkg.Path(), GoroPkgs) {
		return
	}
	cg := dataflow.BuildCallGraph(pass.Files, pass.Info)
	canPanic := cg.Mark(func(fn *dataflow.FuncNode, n ast.Node) bool {
		return panicSeed(pass, n)
	})

	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			var target *dataflow.FuncNode
			if lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit); ok {
				target = cg.NodeForLit(lit)
			} else {
				target = cg.ResolveCall(gs.Call)
			}
			if target == nil {
				return true // cross-package or dynamic target: out of reach
			}
			if canPanic[target] && !entryRecoverGuard(pass, cg, canPanic, target.Body) {
				pass.Reportf(gs.Pos(), "goroutine body can panic but installs no recover() guard at entry; an unrecovered panic here crashes the process instead of failing the run with a PanicError")
			}
			if !hasJoinEvidence(pass, target.Body) {
				pass.Reportf(gs.Pos(), "goroutine has no join or release path (WaitGroup.Done, channel send/close/receive, or condvar); the run can return while this worker is still live")
			}
			return true
		})
	}
}

// entryRecoverGuard reports whether body installs a deferred recover()
// before any statement that can panic: scanning top-level statements in
// order, a recovering defer establishes the guard; a statement that can
// panic first means the guard comes too late.
func entryRecoverGuard(pass *lint.Pass, cg *dataflow.CallGraph, canPanic map[*dataflow.FuncNode]bool, body *ast.BlockStmt) bool {
	for _, stmt := range body.List {
		if ds, ok := stmt.(*ast.DeferStmt); ok {
			if deferRecovers(pass, cg, ds.Call) {
				return true
			}
			continue // a non-recovering defer (wg.Done) runs after the panic anyway
		}
		if stmtCanPanic(pass, cg, canPanic, stmt) {
			return false
		}
	}
	return false
}

// deferRecovers reports whether a deferred call reaches recover(): either a
// function literal whose body calls recover, or an in-package function that
// does.
func deferRecovers(pass *lint.Pass, cg *dataflow.CallGraph, call *ast.CallExpr) bool {
	var body *ast.BlockStmt
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		body = lit.Body
	} else if fn := cg.ResolveCall(call); fn != nil {
		body = fn.Body
	}
	if body == nil {
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if c, ok := n.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(c.Fun).(*ast.Ident); ok {
				if b, ok := pass.Info.Uses[id].(*types.Builtin); ok && b.Name() == "recover" {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}

func stmtCanPanic(pass *lint.Pass, cg *dataflow.CallGraph, canPanic map[*dataflow.FuncNode]bool, stmt ast.Stmt) bool {
	risky := false
	ast.Inspect(stmt, func(n ast.Node) bool {
		if risky {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false // a literal's body only matters where it is called
		}
		if n == nil {
			return true
		}
		if panicSeed(pass, n) {
			risky = true
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if callee := cg.ResolveCall(call); callee != nil && canPanic[callee] {
				risky = true
				return false
			}
		}
		return true
	})
	return risky
}

// safeCallPkgs are packages whose exported functions and methods are
// treated as non-panicking for goroutine-isolation purposes.
var safeCallPkgs = map[string]bool{
	"sync":        true,
	"sync/atomic": true,
	"context":     true,
	"time":        true,
}

// panicSeed reports whether a node can panic by itself. In-package calls
// are not seeds — the call-graph fixpoint propagates can-panic through
// them. Channel sends and closes are assumed protocol-correct (gfdlint's
// lockdiscipline family owns channel-protocol bugs).
func panicSeed(pass *lint.Pass, n ast.Node) bool {
	switch n := n.(type) {
	case *ast.IndexExpr, *ast.IndexListExpr, *ast.SliceExpr:
		return true // bounds / nil map write
	case *ast.TypeAssertExpr:
		return true // comma-ok forms are rare enough to over-approximate
	case *ast.StarExpr:
		// A deref can fault; in type position (e.g. *T in a declaration)
		// there is nothing to evaluate.
		if tv, ok := pass.Info.Types[n.X]; ok && tv.IsType() {
			return false
		}
		return true
	case *ast.BinaryExpr:
		return n.Op == token.QUO || n.Op == token.REM
	case *ast.CallExpr:
		fn := calleeFunc(pass.Info, n)
		if fn == nil {
			if tv, ok := pass.Info.Types[n.Fun]; ok && tv.IsType() {
				return false // conversion
			}
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if b, ok := pass.Info.Uses[id].(*types.Builtin); ok {
					return b.Name() == "panic"
				}
			}
			return true // call through a function value: unknown body
		}
		if fn.Pkg() == nil || fn.Pkg() == pass.Pkg {
			return false // universe funcs; in-package handled by the fixpoint
		}
		return !safeCallPkgs[fn.Pkg().Path()]
	}
	return false
}

// hasJoinEvidence reports whether a goroutine body contains any join or
// release construct: WaitGroup.Done/Wait, sync.Cond use, a channel
// operation (send, receive, close, select, range over a channel).
func hasJoinEvidence(pass *lint.Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt, *ast.SelectStmt:
			found = true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = true
			}
		case *ast.RangeStmt:
			if t := pass.Info.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					found = true
				}
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if b, ok := pass.Info.Uses[id].(*types.Builtin); ok && b.Name() == "close" {
					found = true
				}
			}
			if fn, _, ok := syncMethod(pass.Info, n); ok {
				switch fn.Name() {
				case "Done", "Wait", "Signal", "Broadcast":
					found = true
				}
			}
		}
		return !found
	})
	return found
}
