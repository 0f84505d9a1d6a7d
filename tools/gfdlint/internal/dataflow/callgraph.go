package dataflow

import (
	"go/ast"
	"go/types"
)

// FuncNode is one function, method, or function literal declared in the
// analyzed package whose body is available from source.
type FuncNode struct {
	Obj  types.Object  // the *types.Func, nil for literals
	Decl *ast.FuncDecl // nil for literals
	Lit  *ast.FuncLit  // nil for declarations
	Body *ast.BlockStmt
	Name string // display name ("funcName", "T.method", "func literal")
}

// CallGraph approximates the intra-package call structure of one
// typechecked package: every declared function plus every function literal,
// with call edges resolvable through types.Info. Calls whose callee cannot
// be resolved to an in-package body (cross-package functions, calls through
// function values, interface methods) are the analyzers' responsibility:
// each summary chooses a conservative default for them.
type CallGraph struct {
	Info  *types.Info
	nodes []*FuncNode
	byObj map[types.Object]*FuncNode
	byLit map[*ast.FuncLit]*FuncNode
}

// BuildCallGraph indexes every function declaration and literal in files.
func BuildCallGraph(files []*ast.File, info *types.Info) *CallGraph {
	cg := &CallGraph{
		Info:  info,
		byObj: map[types.Object]*FuncNode{},
		byLit: map[*ast.FuncLit]*FuncNode{},
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body == nil {
					return true
				}
				node := &FuncNode{Obj: info.Defs[n.Name], Decl: n, Body: n.Body, Name: n.Name.Name}
				if n.Recv != nil && len(n.Recv.List) == 1 {
					node.Name = recvTypeName(n.Recv.List[0].Type) + "." + n.Name.Name
				}
				cg.nodes = append(cg.nodes, node)
				if node.Obj != nil {
					cg.byObj[node.Obj] = node
				}
			case *ast.FuncLit:
				node := &FuncNode{Lit: n, Body: n.Body, Name: "func literal"}
				cg.nodes = append(cg.nodes, node)
				cg.byLit[n] = node
			}
			return true
		})
	}
	return cg
}

func recvTypeName(t ast.Expr) string {
	switch t := t.(type) {
	case *ast.StarExpr:
		return recvTypeName(t.X)
	case *ast.Ident:
		return t.Name
	case *ast.IndexExpr: // generic receiver T[P]
		return recvTypeName(t.X)
	case *ast.IndexListExpr:
		return recvTypeName(t.X)
	}
	return "?"
}

// Funcs returns every node (declarations and literals).
func (cg *CallGraph) Funcs() []*FuncNode { return cg.nodes }

// NodeForObj returns the in-package node declaring obj, nil for
// cross-package or unresolved callees.
func (cg *CallGraph) NodeForObj(obj types.Object) *FuncNode { return cg.byObj[obj] }

// NodeForLit returns the node of a function literal.
func (cg *CallGraph) NodeForLit(lit *ast.FuncLit) *FuncNode { return cg.byLit[lit] }

// ResolveCall resolves a call expression to the in-package FuncNode it
// invokes: a plain function or method call through its *types.Func, or a
// directly invoked function literal `func(){...}()`. Nil when the callee is
// cross-package, dynamic, or a conversion.
func (cg *CallGraph) ResolveCall(call *ast.CallExpr) *FuncNode {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.FuncLit:
		return cg.byLit[fun]
	case *ast.Ident:
		if fn, ok := cg.Info.Uses[fun].(*types.Func); ok {
			return cg.byObj[fn.Origin()]
		}
	case *ast.SelectorExpr:
		if fn, ok := cg.Info.Uses[fun.Sel].(*types.Func); ok {
			// Origin: a method reached through an instantiated generic type
			// (pool[int].run) is a distinct object from its declaration.
			return cg.byObj[fn.Origin()]
		}
	}
	return nil
}

// BodyNodes walks the nodes of fn's body that execute as part of fn itself,
// skipping nested function literals (their effects belong to their own
// node and only transfer to fn where the literal is actually called).
func (fn *FuncNode) BodyNodes(visit func(n ast.Node) bool) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && lit != fn.Lit {
			return false
		}
		if n == nil {
			return true
		}
		return visit(n)
	})
}

// Mark computes the least fixpoint of a boolean per-function summary: a
// function is marked when seed reports true for any node executing in its
// own body, or when its body calls a marked in-package function or
// directly invoked literal. This is how "polls cancellation" and "can
// panic" summaries propagate one (or more) calls deep while staying inside
// the package whose source the loader has.
func (cg *CallGraph) Mark(seed func(fn *FuncNode, n ast.Node) bool) map[*FuncNode]bool {
	marked := map[*FuncNode]bool{}
	for _, fn := range cg.nodes {
		fn := fn
		fn.BodyNodes(func(n ast.Node) bool {
			if marked[fn] {
				return false
			}
			if seed(fn, n) {
				marked[fn] = true
				return false
			}
			return true
		})
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range cg.nodes {
			if marked[fn] {
				continue
			}
			fn := fn
			fn.BodyNodes(func(n ast.Node) bool {
				if marked[fn] {
					return false
				}
				if call, ok := n.(*ast.CallExpr); ok {
					if callee := cg.ResolveCall(call); callee != nil && marked[callee] {
						marked[fn] = true
						changed = true
						return false
					}
				}
				return true
			})
		}
	}
	return marked
}

// MutatedParams computes, per in-package function, the set of parameter
// indices through which the function (transitively, within the package)
// applies a mutation: seedMutation classifies a call as directly mutating
// one of its operand identifiers (e.g. a graph.Mutator method call on a
// receiver, or Refreeze taking the delta as an argument), and the fixpoint
// adds parameters that are passed onward into a mutated parameter of
// another in-package function. The receiver of a method counts as
// parameter -1.
func (cg *CallGraph) MutatedParams(seedMutation func(call *ast.CallExpr) []*ast.Ident) map[*FuncNode]map[int]bool {
	mut := map[*FuncNode]map[int]bool{}
	paramIndex := func(fn *FuncNode, obj types.Object) (int, bool) {
		if obj == nil || fn.Decl == nil {
			return 0, false
		}
		if fn.Decl.Recv != nil && len(fn.Decl.Recv.List) == 1 {
			for _, name := range fn.Decl.Recv.List[0].Names {
				if cg.Info.Defs[name] == obj {
					return -1, true
				}
			}
		}
		i := 0
		for _, field := range fn.Decl.Type.Params.List {
			if len(field.Names) == 0 {
				i++
				continue
			}
			for _, name := range field.Names {
				if cg.Info.Defs[name] == obj {
					return i, true
				}
				i++
			}
		}
		return 0, false
	}
	note := func(fn *FuncNode, idx int) bool {
		m := mut[fn]
		if m == nil {
			m = map[int]bool{}
			mut[fn] = m
		}
		if m[idx] {
			return false
		}
		m[idx] = true
		return true
	}
	identObj := func(e ast.Expr) types.Object {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return nil
		}
		if o := cg.Info.Uses[id]; o != nil {
			return o
		}
		return cg.Info.Defs[id]
	}

	for changed := true; changed; {
		changed = false
		for _, fn := range cg.nodes {
			if fn.Decl == nil {
				continue // literals: summaries attach to declared functions only
			}
			fn := fn
			fn.BodyNodes(func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				for _, id := range seedMutation(call) {
					if idx, ok := paramIndex(fn, identObj(id)); ok {
						if note(fn, idx) {
							changed = true
						}
					}
				}
				// Propagate through in-package callees: an argument (or
				// receiver) forwarded into a mutated parameter.
				callee := cg.ResolveCall(call)
				if callee == nil || mut[callee] == nil {
					return true
				}
				for idx := range mut[callee] {
					var arg ast.Expr
					if idx == -1 {
						if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
							arg = sel.X
						}
					} else if idx < len(call.Args) {
						arg = call.Args[idx]
					}
					if arg == nil {
						continue
					}
					if pidx, ok := paramIndex(fn, identObj(arg)); ok {
						if note(fn, pidx) {
							changed = true
						}
					}
				}
				return true
			})
		}
	}
	return mut
}
