package cfg

import "go/ast"

// Forward is a forward iterative dataflow analysis over a Graph. The
// caller supplies the lattice as three functions; Run computes the
// fixed point with a worklist over reverse post-order.
//
// Merge must be a commutative, associative join (union for may-
// analyses like "a lock may still be held here", intersection for
// must-analyses like "the mutex is guaranteed held here"). Blocks are
// initialized optimistically: a block's in-fact merges only the
// out-facts of predecessors processed so far, which yields the
// greatest fixed point — the standard choice for must-analyses and
// harmless for may-analyses since iteration continues to stability.
//
// Facts must be treated as immutable: TransferNode receives the
// in-fact and returns a fresh (or unchanged) out-fact, never mutating
// its argument, because in-facts are shared across successor edges.
type Forward[T any] struct {
	// Entry is the fact at function entry.
	Entry T
	// Merge joins two facts at a control-flow merge point.
	Merge func(a, b T) T
	// Equal reports whether two facts are equal (fixed-point test).
	Equal func(a, b T) bool
	// TransferNode advances the fact across one node of a block.
	TransferNode func(n ast.Node, in T) T
}

// Result holds the per-block facts computed by Run.
type Result[T any] struct {
	// In[i] is the fact at entry to Blocks[i]; Has[i] reports whether
	// the block was reached (unreachable blocks have no meaningful
	// fact and must be skipped by consumers).
	In  []T
	Has []bool
	g   *Graph
	fwd *Forward[T]
}

// Run computes the fixed point over g and returns the per-block
// in-facts. Unreachable blocks are not visited.
func (f *Forward[T]) Run(g *Graph) *Result[T] {
	res := &Result[T]{
		In:  make([]T, len(g.Blocks)),
		Has: make([]bool, len(g.Blocks)),
		g:   g,
		fwd: f,
	}
	if len(g.Blocks) == 0 {
		return res
	}
	out := make([]T, len(g.Blocks))
	hasOut := make([]bool, len(g.Blocks))

	res.In[0] = f.Entry
	res.Has[0] = true

	// Worklist seeded with the entry block; blocks enter the list
	// when a predecessor's out-fact changes.
	work := []*Block{g.Blocks[0]}
	inWork := make([]bool, len(g.Blocks))
	inWork[0] = true
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		inWork[b.Index] = false

		if b.Index != 0 {
			merged, any := f.mergePreds(b, out, hasOut)
			if !any {
				continue
			}
			res.In[b.Index] = merged
			res.Has[b.Index] = true
		}
		o := f.transferBlock(b, res.In[b.Index])
		if hasOut[b.Index] && f.Equal(out[b.Index], o) {
			continue
		}
		out[b.Index] = o
		hasOut[b.Index] = true
		for _, s := range b.Succs {
			if !inWork[s.Index] {
				inWork[s.Index] = true
				work = append(work, s)
			}
		}
	}
	return res
}

// AtNode replays the block's transfer up to (but not including) node
// i of block b, returning the fact in force just before that node.
// Only valid for reached blocks.
func (r *Result[T]) AtNode(b *Block, i int) T {
	fact := r.In[b.Index]
	for j := 0; j < i && j < len(b.Nodes); j++ {
		fact = r.fwd.TransferNode(b.Nodes[j], fact)
	}
	return fact
}

func (f *Forward[T]) mergePreds(b *Block, out []T, hasOut []bool) (T, bool) {
	var merged T
	any := false
	for _, p := range b.Preds {
		if !hasOut[p.Index] {
			continue
		}
		if !any {
			merged = out[p.Index]
			any = true
		} else {
			merged = f.Merge(merged, out[p.Index])
		}
	}
	return merged, any
}

func (f *Forward[T]) transferBlock(b *Block, in T) T {
	fact := in
	for _, n := range b.Nodes {
		fact = f.TransferNode(n, fact)
	}
	return fact
}
