// Package cfg builds intraprocedural control-flow graphs over go/ast
// function bodies and provides a small forward dataflow framework on
// top of them. It is the flow-sensitive substrate for aqppp-lint's
// path-aware rule, lock-balance: the AST walkers can see *sites*, but
// only a CFG can see the early return between a Lock and its Unlock.
//
// The graph is purely syntactic (no go/types): blocks hold the
// statements and control-flow condition expressions in execution
// order, and edges cover structured control flow (if/for/range/
// switch/type-switch/select), branch statements (break/continue/goto/
// fallthrough, labeled or not), returns, and panics. Defer and go
// statements appear as ordinary nodes — their flow interpretation
// (e.g. "defer mu.Unlock() discharges the obligation on every later
// return") is rule policy, not graph structure, so it lives in the
// rules.
//
// Two synthetic blocks terminate every function: Exit, reached by
// every return statement and by falling off the end of the body, and
// Panic, reached by calls to the panic builtin. Rules that only care
// about clean completion (a leaked lock on a panicking path is moot —
// the process is dying) analyze paths into Exit and ignore Panic.
package cfg

import (
	"go/ast"
	"go/token"
)

// Block is one basic block: a maximal straight-line sequence of nodes
// with edges only at the end.
type Block struct {
	// Index is the block's position in Graph.Blocks (stable across
	// identical inputs, so analyses ordering by Index are
	// deterministic).
	Index int
	// Kind labels why the block exists ("entry", "if.then", "for.body",
	// "exit", ...) for debugging and tests.
	Kind string
	// Nodes holds the block's statements and control-flow condition
	// expressions in execution order.
	Nodes []ast.Node
	// Succs and Preds are the control-flow edges.
	Succs []*Block
	Preds []*Block
}

// Graph is the control-flow graph of one function body.
type Graph struct {
	// Blocks holds every block; Blocks[0] is the entry block.
	Blocks []*Block
	// Exit is the synthetic normal-completion block: every return
	// statement and the fall-off-the-end path lead here. It has no
	// successors and no nodes.
	Exit *Block
	// Panic is the synthetic abnormal-completion block reached by
	// calls to the panic builtin. Nil if the body cannot panic
	// explicitly.
	Panic *Block
}

// New builds the control-flow graph of body. A nil body (a function
// declared without one, e.g. implemented in assembly) yields a graph
// whose entry connects straight to Exit.
func New(body *ast.BlockStmt) *Graph {
	b := &builder{
		g:      &Graph{},
		labels: make(map[string]*labelInfo),
	}
	entry := b.newBlock("entry")
	b.g.Exit = b.newBlock("exit")
	b.cur = entry
	if body != nil {
		b.stmtList(body.List)
	}
	// Falling off the end of the body is an implicit return.
	b.edgeTo(b.g.Exit)
	b.resolveGotos()
	b.connectPreds()
	return b.g
}

// labelInfo tracks one label: the block a goto jumps to, plus the
// break/continue targets while the labeled statement is being built.
type labelInfo struct {
	target   *Block // first block of the labeled statement (goto target)
	breakTo  *Block
	contTo   *Block
	resolved bool
}

// builder accumulates blocks while walking the body.
type builder struct {
	g   *Graph
	cur *Block
	// breakTo/contTo are the innermost unlabeled break/continue
	// targets.
	breakTo *Block
	contTo  *Block
	// fallTo is the target of a fallthrough in the current case body.
	fallTo *Block
	labels map[string]*labelInfo
	// curLabel is the label naming the statement about to be built,
	// so "L: for ..." can bind L's break/continue targets to that
	// loop's done/post blocks.
	curLabel *labelInfo
	// pendingGotos are forward gotos awaiting their label.
	pendingGotos []pendingGoto
}

type pendingGoto struct {
	from  *Block
	label string
}

func (b *builder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.g.Blocks), Kind: kind}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

// edgeTo appends an edge cur -> to (if cur is still open) without
// changing cur.
func (b *builder) edgeTo(to *Block) {
	if b.cur == nil || to == nil {
		return
	}
	b.cur.Succs = append(b.cur.Succs, to)
}

// jump closes the current block with an edge to target; subsequent
// nodes land in a fresh (initially unreachable) block so that code
// after a return/branch is still represented. A nil target (a branch
// the source cannot legally write, e.g. break outside any loop, which
// the parser nonetheless accepts) conservatively exits the function.
func (b *builder) jump(target *Block, deadKind string) {
	if target == nil {
		target = b.g.Exit
	}
	b.edgeTo(target)
	b.cur = b.newBlock(deadKind)
}

// add appends a node to the current block.
func (b *builder) add(n ast.Node) {
	b.cur.Nodes = append(b.cur.Nodes, n)
}

func (b *builder) panicBlock() *Block {
	if b.g.Panic == nil {
		b.g.Panic = b.newBlock("panic")
	}
	return b.g.Panic
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// stmt translates one statement into blocks and edges.
func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Cond)
		condBlk := b.cur
		then := b.newBlock("if.then")
		done := b.newBlock("if.done")
		condBlk.Succs = append(condBlk.Succs, then)
		b.cur = then
		b.stmtList(s.Body.List)
		b.edgeTo(done)
		if s.Else != nil {
			els := b.newBlock("if.else")
			condBlk.Succs = append(condBlk.Succs, els)
			b.cur = els
			b.stmt(s.Else)
			b.edgeTo(done)
		} else {
			condBlk.Succs = append(condBlk.Succs, done)
		}
		b.cur = done

	case *ast.ForStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		head := b.newBlock("for.head")
		body := b.newBlock("for.body")
		done := b.newBlock("for.done")
		post := head
		if s.Post != nil {
			post = b.newBlock("for.post")
		}
		b.bindLabel(done, post)
		b.edgeTo(head)
		b.cur = head
		if s.Cond != nil {
			b.add(s.Cond)
			head.Succs = append(head.Succs, body, done)
		} else {
			head.Succs = append(head.Succs, body)
		}
		b.withTargets(done, post, s, func() {
			b.cur = body
			b.stmtList(s.Body.List)
			b.edgeTo(post)
		})
		if s.Post != nil {
			b.cur = post
			b.stmt(s.Post)
			b.edgeTo(head)
		}
		b.cur = done

	case *ast.RangeStmt:
		head := b.newBlock("range.head")
		body := b.newBlock("range.body")
		done := b.newBlock("range.done")
		b.bindLabel(done, head)
		b.edgeTo(head)
		// Only the range expression is a head node — the body hangs
		// off its own blocks, and adding the whole RangeStmt would
		// make transfer functions walk the body twice.
		head.Nodes = append(head.Nodes, s.X)
		head.Succs = append(head.Succs, body, done)
		b.withTargets(done, head, s, func() {
			b.cur = body
			b.stmtList(s.Body.List)
			b.edgeTo(head)
		})
		b.cur = done

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.caseClauses(s, s.Body.List, "switch")

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Assign)
		b.caseClauses(s, s.Body.List, "typeswitch")

	case *ast.SelectStmt:
		sel := b.cur
		done := b.newBlock("select.done")
		b.bindLabel(done, nil)
		b.withTargets(done, nil, s, func() {
			for _, c := range s.Body.List {
				comm := c.(*ast.CommClause)
				body := b.newBlock("select.case")
				sel.Succs = append(sel.Succs, body)
				b.cur = body
				if comm.Comm != nil {
					b.stmt(comm.Comm)
				}
				b.stmtList(comm.Body)
				b.edgeTo(done)
			}
		})
		// A select with no cases blocks forever: done stays
		// unreachable, which Unreachable() reports and analyses treat
		// as no normal completion.
		b.cur = done

	case *ast.LabeledStmt:
		li := b.labelFor(s.Label.Name)
		// The label's target block: control falls into it, and gotos
		// jump to it.
		target := b.newBlock("label." + s.Label.Name)
		b.edgeTo(target)
		b.cur = target
		li.target = target
		li.resolved = true
		switch s.Stmt.(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			// The statement's builder binds li's break/continue
			// targets when it creates its done/post blocks.
			b.curLabel = li
			b.stmt(s.Stmt)
			b.curLabel = nil
		default:
			b.stmt(s.Stmt)
		}

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			if s.Label != nil {
				b.jump(b.labelFor(s.Label.Name).breakTo, "dead.break")
			} else {
				b.jump(b.breakTo, "dead.break")
			}
		case token.CONTINUE:
			if s.Label != nil {
				b.jump(b.labelFor(s.Label.Name).contTo, "dead.continue")
			} else {
				b.jump(b.contTo, "dead.continue")
			}
		case token.GOTO:
			if s.Label == nil {
				// Parser error recovery can yield a bare "goto";
				// treat it as an exit so the graph stays well-formed.
				b.jump(b.g.Exit, "dead.goto")
				return
			}
			li := b.labelFor(s.Label.Name)
			if li.resolved {
				b.jump(li.target, "dead.goto")
			} else {
				from := b.cur
				b.pendingGotos = append(b.pendingGotos, pendingGoto{from: from, label: s.Label.Name})
				b.cur = b.newBlock("dead.goto")
			}
		case token.FALLTHROUGH:
			b.jump(b.fallTo, "dead.fallthrough")
		}

	case *ast.ReturnStmt:
		b.add(s)
		b.jump(b.g.Exit, "dead.return")

	case *ast.ExprStmt:
		b.add(s)
		if isPanicCall(s.X) {
			b.jump(b.panicBlock(), "dead.panic")
		}

	default:
		// DeclStmt, AssignStmt, IncDecStmt, SendStmt, DeferStmt,
		// GoStmt, EmptyStmt: straight-line nodes. Defer/go semantics
		// are interpreted by the rules.
		if _, ok := s.(*ast.EmptyStmt); !ok {
			b.add(s)
		}
	}
}

// caseClauses builds the shared switch/type-switch shape: the tag
// block branches to every case body (and past them when no default
// exists); fallthrough chains case bodies; break exits to done.
func (b *builder) caseClauses(sw ast.Stmt, clauses []ast.Stmt, kind string) {
	tag := b.cur
	done := b.newBlock(kind + ".done")
	b.bindLabel(done, nil)
	bodies := make([]*Block, len(clauses))
	hasDefault := false
	for i, c := range clauses {
		bodies[i] = b.newBlock(kind + ".case")
		if cc, ok := c.(*ast.CaseClause); ok && cc.List == nil {
			hasDefault = true
		}
	}
	for _, body := range bodies {
		tag.Succs = append(tag.Succs, body)
	}
	if !hasDefault {
		tag.Succs = append(tag.Succs, done)
	}
	b.withTargets(done, nil, sw, func() {
		for i, c := range clauses {
			cc := c.(*ast.CaseClause)
			b.cur = bodies[i]
			savedFall := b.fallTo
			if i+1 < len(bodies) {
				b.fallTo = bodies[i+1]
			} else {
				b.fallTo = done
			}
			for _, e := range cc.List {
				b.add(e)
			}
			b.stmtList(cc.Body)
			b.fallTo = savedFall
			b.edgeTo(done)
		}
	})
	b.cur = done
}

// withTargets runs fn with the unlabeled break/continue targets set
// (contTo nil leaves the continue target unchanged: switch/select
// capture break but not continue), and re-binds any label currently
// naming stmt so labeled break/continue resolve too.
func (b *builder) withTargets(breakTo, contTo *Block, _ ast.Stmt, fn func()) {
	savedBreak, savedCont := b.breakTo, b.contTo
	b.breakTo = breakTo
	if contTo != nil {
		b.contTo = contTo
	}
	fn()
	b.breakTo, b.contTo = savedBreak, savedCont
}

// bindLabel, when the statement being built is directly named by a
// label ("L: for { ... }"), records the label's break target (and
// continue target, for loops) so "break L" / "continue L" resolve.
func (b *builder) bindLabel(breakTo, contTo *Block) {
	if b.curLabel == nil {
		return
	}
	b.curLabel.breakTo = breakTo
	b.curLabel.contTo = contTo
	b.curLabel = nil
}

func isPanicCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

// labelFor returns (creating if needed) the info for a label name.
func (b *builder) labelFor(name string) *labelInfo {
	li := b.labels[name]
	if li == nil {
		li = &labelInfo{}
		b.labels[name] = li
	}
	return li
}

// resolveGotos wires forward gotos now that all labels are known.
// A goto to an undeclared label (illegal Go, but the parser accepts
// it) falls through to Exit so the graph stays well-formed.
func (b *builder) resolveGotos() {
	for _, pg := range b.pendingGotos {
		li := b.labels[pg.label]
		if li != nil && li.resolved {
			pg.from.Succs = append(pg.from.Succs, li.target)
		} else {
			pg.from.Succs = append(pg.from.Succs, b.g.Exit)
		}
	}
}

// connectPreds fills in predecessor edges from the successor lists.
func (b *builder) connectPreds() {
	for _, blk := range b.g.Blocks {
		for _, s := range blk.Succs {
			s.Preds = append(s.Preds, blk)
		}
	}
}
