package analyzers

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"

	"repro/tools/gfdlint/internal/lint"
)

// HotPkgs is the comma-separated list of package-path suffixes HotAlloc
// applies to ("*" = every package). The default covers the matching and
// reasoning hot paths named by the Reader contract; generators and tools
// may trade the allocation for clarity.
var HotPkgs = "internal/match,internal/core"

// HotAlloc enforces the hot-path half of the graph.Reader copy contract
// (reader.go): graph.CandidateNodes(r, label) returns a fresh caller-owned
// copy per call, so calling it inside a loop body allocates once per
// iteration. Loops must hoist a buffer and use r.AppendCandidates(buf[:0],
// label) instead. Per-iteration copies that are retained (e.g. collected
// into a slice of slices) are legitimate; annotate them with
// //gfdlint:allow hotalloc -- <why the copy is needed>.
var HotAlloc = &lint.Analyzer{
	Name:          "hotalloc",
	Doc:           "flags per-iteration graph.CandidateNodes copies in hot loops; use AppendCandidates",
	SkipTestFiles: true,
	Run:           runHotAlloc,
}

func runHotAlloc(pass *lint.Pass) {
	if !pkgEnabled(pass.Pkg.Path(), HotPkgs) {
		return
	}
	for _, f := range pass.Files {
		lint.WalkStack(f, func(n ast.Node, stack []ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.Info, call)
			if fn == nil || !declPkgMatches(fn, "graph") {
				return true
			}
			if fn.Name() != "CandidateNodes" || !insideLoopBody(stack) {
				return true
			}
			d := lint.Diagnostic{
				Pos: call.Pos(),
				End: call.End(),
				Message: "CandidateNodes allocates a fresh copy every loop iteration (graph.Reader copy contract); " +
					"hoist a buffer outside the loop and use AppendCandidates(buf[:0], label)",
			}
			if fix, ok := reuseBufferFix(pass, stack, call); ok {
				d.SuggestedFixes = []lint.SuggestedFix{fix}
			}
			pass.Report(d)
			return true
		})
	}
}

// insideLoopBody reports whether the node whose ancestors are stack sits in
// the body of a for/range statement. Function literals do not reset the
// search: a closure defined inside a loop body runs per iteration.
func insideLoopBody(stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		var body *ast.BlockStmt
		switch s := stack[i].(type) {
		case *ast.ForStmt:
			body = s.Body
		case *ast.RangeStmt:
			body = s.Body
		default:
			continue
		}
		// The node is in the loop body iff the next node down the ancestor
		// path is the body block (not the init/cond/post/range expression).
		if i+1 < len(stack) && stack[i+1] == body {
			return true
		}
	}
	return false
}

// reuseBufferFix emits the mechanical rewrite for the plain-assignment
// shape `v = graph.CandidateNodes(r, label)` with r a plain identifier or
// selector: reuse v itself as the append buffer,
// `v = r.AppendCandidates(v[:0], label)`. Safe under the Reader contract —
// the caller owns the copy — provided the previous contents of v are dead,
// which a plain reassignment states. The `:=` shape gets no auto-fix: the
// buffer must be hoisted out of the loop by hand.
func reuseBufferFix(pass *lint.Pass, stack []ast.Node, call *ast.CallExpr) (lint.SuggestedFix, bool) {
	if len(stack) == 0 {
		return lint.SuggestedFix{}, false
	}
	asg, ok := stack[len(stack)-1].(*ast.AssignStmt)
	if !ok || asg.Tok != token.ASSIGN || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 || asg.Rhs[0] != call {
		return lint.SuggestedFix{}, false
	}
	lhs, ok := asg.Lhs[0].(*ast.Ident)
	if !ok || lhs.Name == "_" {
		return lint.SuggestedFix{}, false
	}
	if len(call.Args) != 2 {
		return lint.SuggestedFix{}, false
	}
	switch ast.Unparen(call.Args[0]).(type) {
	case *ast.Ident, *ast.SelectorExpr:
	default:
		return lint.SuggestedFix{}, false
	}
	recv := exprText(pass, ast.Unparen(call.Args[0]))
	arg := exprText(pass, call.Args[1])
	if recv == "" || arg == "" {
		return lint.SuggestedFix{}, false
	}
	return lint.SuggestedFix{
		Message: "reuse " + lhs.Name + " as the append buffer",
		Edits: []lint.TextEdit{{
			Pos:     call.Pos(),
			End:     call.End(),
			NewText: []byte(recv + ".AppendCandidates(" + lhs.Name + "[:0], " + arg + ")"),
		}},
	}, true
}

func exprText(pass *lint.Pass, e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, pass.Fset, e); err != nil {
		return ""
	}
	return buf.String()
}
