package analyzers

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"

	"repro/tools/gfdlint/internal/cfg"
	"repro/tools/gfdlint/internal/dataflow"
	"repro/tools/gfdlint/internal/lint"
)

// LockDiscipline enforces the locking rules the worker pool
// (core/pool.go, cluster.Deque) relies on:
//
//   - sync.Cond.Wait must be called directly inside a for loop that
//     re-checks the wait condition — an `if` guard misses spurious wakeups
//     and the scan-then-sleep race the pool's seq handshake closes.
//   - a sync.Mutex/RWMutex locked in a function must be released on every
//     path: a `return` while the lock is held (and no defer-unlock is
//     registered) is reported, as is falling off the end of the function
//     and re-locking a held mutex (self-deadlock).
//
// The release rule runs a forward dataflow over the function's CFG: the
// fact is the set of held lock keys ("mu", "st.mu", ...) with their
// acquisition sites; paths joining with divergent lock state stop tracking
// the divergent keys (no report) rather than guess.
var LockDiscipline = &lint.Analyzer{
	Name: "lockdiscipline",
	Doc:  "flags cond.Wait outside a loop and locks not released on all paths",
	Run:  runLockDiscipline,
}

func runLockDiscipline(pass *lint.Pass) {
	for _, f := range pass.Files {
		// Condvar rule, over the whole file.
		lint.WalkStack(f, func(n ast.Node, stack []ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn, _, ok := syncMethod(pass.Info, call)
			if !ok || fn.Name() != "Wait" || recvNamed(fn) != "Cond" {
				return true
			}
			if !waitDirectlyInFor(stack) {
				pass.Reportf(call.Pos(), "sync.Cond.Wait must run in a for loop re-checking its condition (spurious wakeups; see the pool's seq handshake in core/pool.go)")
			}
			return true
		})

		// Lock-release rule, one function (or function literal) at a time.
		lint.WalkStack(f, func(n ast.Node, stack []ast.Node) bool {
			switch fd := n.(type) {
			case *ast.FuncDecl:
				if fd.Body != nil {
					checkLockPaths(pass, fd.Name.Name, fd.Body)
				}
			case *ast.FuncLit:
				checkLockPaths(pass, "func literal", fd.Body)
			}
			return true
		})
	}
}

// waitDirectlyInFor reports whether the Wait call's nearest non-block
// ancestor statement is a for loop.
func waitDirectlyInFor(stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.ExprStmt, *ast.BlockStmt, *ast.LabeledStmt:
			continue
		case *ast.ForStmt, *ast.RangeStmt:
			return true
		default:
			return false
		}
	}
	return false
}

// ldFact maps a held lock key to its acquisition position. nil is the
// lattice bottom (block not yet reached); an empty non-nil map means "no
// locks held".
type ldFact map[string]token.Pos

func checkLockPaths(pass *lint.Pass, name string, body *ast.BlockStmt) {
	g := cfg.New(body)

	// Deferred unlocks release on every path; registration is treated
	// flow-insensitively (a conditional defer still clears the key, exactly
	// as the pre-CFG walker did).
	deferred := map[string]bool{}
	for _, d := range g.Defers {
		markDeferredUnlocks(pass, d.Call, deferred)
	}

	// Keys whose state diverged at some join: tracked but never reported.
	// Populated after solving, consulted by the report pass.
	dead := map[string]bool{}

	join := func(a, b ldFact) ldFact {
		if a == nil {
			return b
		}
		if b == nil {
			return a
		}
		out := make(ldFact, len(a)+len(b))
		for k, pa := range a {
			if pb, ok := b[k]; ok && pb < pa {
				pa = pb
			}
			out[k] = pa
		}
		for k, pb := range b {
			if _, ok := a[k]; !ok {
				out[k] = pb
			}
		}
		return out
	}
	equal := func(a, b ldFact) bool {
		if (a == nil) != (b == nil) || len(a) != len(b) {
			return false
		}
		for k, pa := range a {
			if pb, ok := b[k]; !ok || pa != pb {
				return false
			}
		}
		return true
	}

	// transfer interprets one block; report is nil while solving and set
	// during the report pass.
	transfer := func(b *cfg.Block, in ldFact, report func(kind string, pos token.Pos, key string, lockPos token.Pos)) ldFact {
		if in == nil {
			return nil
		}
		out := in
		cloned := false
		set := func(k string, p token.Pos) {
			if !cloned {
				out, cloned = out.clone(), true
			}
			out[k] = p
		}
		del := func(k string) {
			if _, ok := out[k]; !ok {
				return
			}
			if !cloned {
				out, cloned = out.clone(), true
			}
			delete(out, k)
		}
		for _, n := range b.Nodes {
			switch s := n.(type) {
			case *ast.ExprStmt:
				call, ok := s.X.(*ast.CallExpr)
				if !ok {
					continue
				}
				fn, key, ok := syncMethod(pass.Info, call)
				if !ok {
					continue
				}
				switch fn.Name() {
				case "Lock":
					if pos, held := out[key]; held && !dead[key] && report != nil {
						report("relock", call.Pos(), key, pos)
					}
					set(key, call.Pos())
				case "RLock":
					// Read locks nest across goroutines but not within one
					// holder; track release only.
					set(key, call.Pos())
				case "Unlock", "RUnlock":
					del(key)
				}
			case *ast.ReturnStmt:
				if report != nil {
					for _, key := range sortedKeys(out) {
						if !dead[key] && !deferred[key] {
							report("return", s.Pos(), key, out[key])
						}
					}
				}
			}
		}
		return out
	}

	res := dataflow.Solve(g, dataflow.Spec[ldFact]{
		Dir:      dataflow.Forward,
		Boundary: ldFact{},
		Init:     nil,
		Join:     join,
		Transfer: func(b *cfg.Block, in ldFact) ldFact { return transfer(b, in, nil) },
		Equal:    equal,
	})

	// Keys whose state diverges at a real join point stop being tracked (no
	// report) rather than guessed at. The Exit block is not a real join:
	// paths meeting there are already past their returns, and a
	// returned-while-held path must not be whitewashed by a clean sibling.
	for _, b := range g.Blocks {
		if b == g.Exit || len(b.Preds) < 2 {
			continue
		}
		union := map[string]bool{}
		live := 0
		for _, p := range b.Preds {
			if res.Out[p] == nil {
				continue // unreachable predecessor: contributes nothing
			}
			live++
			for k := range res.Out[p] {
				union[k] = true
			}
		}
		if live < 2 {
			continue
		}
		for _, p := range b.Preds {
			if res.Out[p] == nil {
				continue
			}
			for k := range union {
				if _, ok := res.Out[p][k]; !ok {
					dead[k] = true
				}
			}
		}
	}

	type reportKey struct {
		pos token.Pos
		key string
	}
	reported := map[reportKey]bool{}
	report := func(kind string, pos token.Pos, key string, lockPos token.Pos) {
		if reported[reportKey{pos, key}] {
			return
		}
		reported[reportKey{pos, key}] = true
		switch kind {
		case "relock":
			pass.Reportf(pos, "%s is locked again while already held (locked at %s): self-deadlock", key, pass.Fset.Position(lockPos))
		case "return":
			pass.Reportf(pos, "return while %s is held (locked at %s); unlock before returning or defer the unlock", key, pass.Fset.Position(lockPos))
		}
	}
	for _, b := range g.Blocks {
		transfer(b, res.In[b], report)
	}

	// Falling off the end of the function with a lock held. Intentional
	// lock-helper shapes (lockAll and friends) keep the lock on return.
	if strings.Contains(strings.ToLower(name), "lock") {
		return
	}
	fellOff := map[string]token.Pos{}
	for _, p := range g.Exit.Preds {
		if fallsOff(p) && res.Out[p] != nil {
			for key, pos := range res.Out[p] {
				if !dead[key] && !deferred[key] {
					if old, ok := fellOff[key]; !ok || pos < old {
						fellOff[key] = pos
					}
				}
			}
		}
	}
	for _, key := range sortedKeys(fellOff) {
		pass.Reportf(fellOff[key], "%s is still locked when %s returns; unlock on every path or defer the unlock", key, name)
	}
}

func (f ldFact) clone() ldFact {
	c := make(ldFact, len(f))
	for k, v := range f {
		c[k] = v
	}
	return c
}

func sortedKeys(f ldFact) []string {
	keys := make([]string, 0, len(f))
	for k := range f {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// fallsOff reports whether a predecessor of Exit reaches it by running past
// the last statement rather than through return/panic.
func fallsOff(b *cfg.Block) bool {
	if len(b.Nodes) == 0 {
		return true
	}
	switch last := b.Nodes[len(b.Nodes)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return false
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(last.X).(*ast.CallExpr); ok && cfg.IsTerminalCall(call) {
			return false
		}
	}
	return true
}

// markDeferredUnlocks handles `defer mu.Unlock()` and `defer func() { ...
// mu.Unlock() ... }()`.
func markDeferredUnlocks(pass *lint.Pass, call *ast.CallExpr, deferred map[string]bool) {
	if fn, key, ok := syncMethod(pass.Info, call); ok && (fn.Name() == "Unlock" || fn.Name() == "RUnlock") {
		deferred[key] = true
		return
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if c, ok := n.(*ast.CallExpr); ok {
				if fn, key, ok := syncMethod(pass.Info, c); ok && (fn.Name() == "Unlock" || fn.Name() == "RUnlock") {
					deferred[key] = true
				}
			}
			return true
		})
	}
}
