package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"sort"
	"strings"

	"aqppp/internal/lint/cfg"
)

// LockBalanceRule reports paths from a Lock()/RLock() to a normal
// return on which no matching Unlock()/RUnlock() — immediate or
// deferred — has run. The bug it catches is precisely the one an AST
// walker cannot see, an early `return err` threaded between Lock and
// Unlock.
//
// Mechanics: a union-merge (may-held) dataflow over the function's
// CFG. Lock/RLock raise an obligation keyed by the receiver
// expression (read locks tracked separately, so Lock answered by
// RUnlock stays a finding); Unlock/RUnlock — immediate, deferred, or
// inside a deferred closure — cancel it. A lock still owed at any
// predecessor of the exit block is reported once, at the Lock site,
// naming the first offending return.
//
// Paths into the panic block are deliberately ignored: a lock held
// while the process unwinds to death is not the bug this rule hunts,
// and flagging it would force noise-suppressions on every
// precondition panic.
//
// Known accepted imprecision (see DESIGN.md §11): conditionally
// balanced locks ("if c { mu.Lock() } ... if c { mu.Unlock() }")
// report, because the two conditions are not correlated in the
// lattice; restructure or allowlist them. Functions that hand a
// locked mutex to their caller on purpose must be allowlisted.
type LockBalanceRule struct{}

// Name implements Rule.
func (LockBalanceRule) Name() string { return "lock-balance" }

// Check implements Rule.
func (LockBalanceRule) Check(pkg *Package, report func(pos token.Pos, msg string)) {
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					checkLockBalance(pkg, n.Name.Name, n.Body, report)
				}
				// Literals inside are visited by the continued walk.
			case *ast.FuncLit:
				checkLockBalance(pkg, "func literal", n.Body, report)
			}
			return true
		})
	}
}

// lockFacts maps each lock still owed an unlock — keyed by canonical
// receiver expression, "#r" suffixed for read locks — to where it was
// taken. Facts are immutable: the transfer function copies on write.
type lockFacts map[string]token.Pos

// mergeUnion keeps a lock owed if it is owed on ANY incoming path.
func mergeUnion(a, b lockFacts) lockFacts {
	out := maps.Clone(a)
	for k, v := range b {
		if _, ok := out[k]; !ok {
			out[k] = v
		}
	}
	return out
}

// classifyLockCall returns the lock key a call takes (lock true) or
// releases (lock false), or "" for any other call. Methods of
// sync.Mutex, sync.RWMutex (including promoted embeds — the selection
// still resolves into package sync) and the sync.Locker interface are
// recognized; RWMutex.RLocker() is not followed, and TryLock/TryRLock
// acquire conditionally, so they raise no obligation.
func classifyLockCall(pkg *Package, call *ast.CallExpr) (key string, lock bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", false
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() == nil {
		return "", false
	}
	key = types.ExprString(sel.X)
	switch fn.Name() {
	case "Lock":
		return key, true
	case "RLock":
		return key + "#r", true
	case "Unlock":
		return key, false
	case "RUnlock":
		return key + "#r", false
	}
	return "", false
}

// lockTransfer scans the node for lock operations and returns the
// updated facts. Function literal bodies run at another time and are
// skipped, except under defer: an Unlock anywhere in a defer statement
// ("defer mu.Unlock()", "defer func() { ...; mu.Unlock(); ... }()")
// discharges the obligation for every later return, and a Lock there
// raises none.
func lockTransfer(pkg *Package, n ast.Node, in lockFacts) lockFacts {
	out, copied := in, false
	mutable := func() lockFacts {
		if !copied {
			out, copied = maps.Clone(in), true
		}
		return out
	}
	_, isDefer := n.(*ast.DeferStmt)
	ast.Inspect(n, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return isDefer
		}
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		key, lock := classifyLockCall(pkg, call)
		switch _, owed := out[key]; {
		case key == "":
		case lock && !isDefer:
			mutable()[key] = call.Pos()
		case !lock && owed:
			delete(mutable(), key)
		}
		return true
	})
	return out
}

func checkLockBalance(pkg *Package, name string, body *ast.BlockStmt, report func(pos token.Pos, msg string)) {
	g := cfg.New(body)
	fwd := &cfg.Forward[lockFacts]{
		Entry: lockFacts{},
		Merge: mergeUnion,
		Equal: maps.Equal[lockFacts, lockFacts],
		TransferNode: func(n ast.Node, in lockFacts) lockFacts {
			return lockTransfer(pkg, n, in)
		},
	}
	res := fwd.Run(g)
	// One report per lock site, keyed by the Lock position, naming
	// the first return that leaks it.
	type leak struct {
		key     string
		retLine int
	}
	leaks := make(map[token.Pos]leak)
	for _, pred := range g.Exit.Preds {
		if !res.Has[pred.Index] {
			continue
		}
		// The fact after the block's last node is the fact at the
		// return (explicit ReturnStmt or implicit fall-off-the-end).
		fact := res.AtNode(pred, len(pred.Nodes))
		retLine := 0
		if n := len(pred.Nodes); n > 0 {
			if ret, ok := pred.Nodes[n-1].(*ast.ReturnStmt); ok {
				retLine = pkg.Fset.Position(ret.Pos()).Line
			}
		}
		for key, pos := range fact {
			if prev, ok := leaks[pos]; ok && (prev.retLine != 0 && (retLine == 0 || prev.retLine <= retLine)) {
				continue
			}
			leaks[pos] = leak{key: key, retLine: retLine}
		}
	}
	poss := make([]token.Pos, 0, len(leaks))
	for pos := range leaks {
		poss = append(poss, pos)
	}
	sort.Slice(poss, func(i, j int) bool { return poss[i] < poss[j] })
	for _, pos := range poss {
		l := leaks[pos]
		lockName, isRead := strings.CutSuffix(l.key, "#r")
		verb := "Unlock"
		if isRead {
			verb = "RUnlock"
		}
		where := "the end of " + name
		if l.retLine != 0 {
			where = fmt.Sprintf("the return at line %d", l.retLine)
		}
		report(pos, fmt.Sprintf("%s is locked here but not released by %s on the path to %s", lockName, verb, where))
	}
}
