// Package reuse finds all instances of an identified cut in an
// application's data-flow graphs: node sets that are isomorphic to the cut
// pattern (same opcodes, same internal data-flow wiring, compatible
// external port usage) and can therefore execute on the same AFU.
//
// Counting and claiming these instances is what lets ISEGEN exploit the
// regularity of applications like AES (Figure 7 of the paper): one AFU
// datapath serves many occurrences of the repeated computation.
//
// The matcher is a VF2-style backtracking search with operand-position
// awareness: non-commutative operations must wire operands identically,
// commutative ones may swap. A candidate instance is accepted only when
//
//   - it is convex in its block,
//   - every instance value that escapes (is consumed outside the instance
//     or is live out) corresponds to a pattern node that also escapes, so
//     the existing AFU output ports suffice, and
//   - its external inputs factor through the pattern's input ports.
package reuse

import (
	"sort"

	"repro/internal/graph"
	"repro/internal/ir"
)

// pattern is the preprocessed form of a cut to match against.
type pattern struct {
	blk   *ir.Block
	nodes []int // pattern node IDs in match order
	// pos[v-lo] is the index in nodes of node v, -1 for nodes outside
	// the pattern; it spans just the pattern's ID range [lo, lo+len(pos)).
	lo  int
	pos []int
	// ops lists the distinct opcodes of the pattern; opSlot[i] is the
	// index in ops of nodes[i]'s opcode.
	ops    []ir.Op
	opSlot []int
	// escapes[i] reports whether pattern node nodes[i] has an output
	// port (value consumed outside the cut or live out).
	escapes []bool
}

func newPattern(blk *ir.Block, cut *graph.BitSet) *pattern {
	p := &pattern{blk: blk}
	// Match order: topological within the pattern so that matched
	// predecessors constrain candidates. Topological positions are
	// unique, so the order is total.
	ids := cut.Elems() // ascending: fixes the ID range before the sort
	p.lo = ids[0]
	p.pos = make([]int, ids[len(ids)-1]-p.lo+1)
	sort.Slice(ids, func(a, b int) bool {
		return blk.DAG().TopoPos(ids[a]) < blk.DAG().TopoPos(ids[b])
	})
	p.nodes = ids
	for k := range p.pos {
		p.pos[k] = -1
	}
	p.opSlot = make([]int, len(ids))
	for i, v := range ids {
		p.pos[v-p.lo] = i
		p.opSlot[i] = p.slotOf(blk.Nodes[v].Op)
		if p.opSlot[i] < 0 {
			p.opSlot[i] = len(p.ops)
			p.ops = append(p.ops, blk.Nodes[v].Op)
		}
	}
	p.escapes = make([]bool, len(ids))
	for i, v := range ids {
		if !blk.Nodes[v].Op.HasValue() {
			continue
		}
		if blk.LiveOut.Has(v) {
			p.escapes[i] = true
			continue
		}
		for _, u := range blk.Uses(v) {
			if !cut.Has(u) {
				p.escapes[i] = true
				break
			}
		}
	}
	return p
}

// indexOf returns the match-order index of node v, -1 when v is not a
// pattern node.
func (p *pattern) indexOf(v int) int {
	if k := v - p.lo; k >= 0 && k < len(p.pos) {
		return p.pos[k]
	}
	return -1
}

// slotOf returns the index of op in p.ops, -1 when the pattern lacks it.
// A pattern uses only a few distinct opcodes, so a scan is enough.
func (p *pattern) slotOf(op ir.Op) int {
	for i, o := range p.ops {
		if o == op {
			return i
		}
	}
	return -1
}

// portKey encodes an external operand source within one block for port
// binding: a node value as its ID, external input k as -1-k.
func portKey(o ir.Operand) int {
	if o.Kind == ir.FromInput {
		return -1 - o.Index
	}
	return o.Index
}

// portBinding binds one pattern external port to its image in the target.
type portBinding struct{ pat, tgt int }

// matcher performs the backtracking search of one pattern in one block.
type matcher struct {
	p         *pattern
	blk       *ir.Block // target block
	available *graph.BitSet
	assign    []int // pattern index -> target node ID (-1 unset)
	used      *graph.BitSet
	// portStack holds the bound external ports in binding order, each
	// pattern port at most once, so every use of a port maps to the same
	// target operand. A pattern has only a handful of external ports, so
	// a linear scan beats hashing. assignPorts stacks, per assigned
	// pattern node, how many bindings the assignment pushed; rollback
	// truncates. One shared stack plus counts keeps the backtracking
	// inner loop allocation-free — the matcher runs once per (pattern,
	// block) pair inside the reuse-aware claim path.
	portStack   []portBinding
	assignPorts []int
	// byOp[k] lists, in ascending order, the target nodes with opcode
	// p.ops[k]: the candidates of an unconstrained scan. Nodes whose
	// opcode the pattern lacks can never match and are not indexed.
	byOp  [][]int
	out   []*graph.BitSet
	limit int
	// steps bounds the backtracking work: symmetric patterns (e.g. xor
	// trees) have factorially many automorphic mappings and the search
	// must not wander them forever. When the budget runs out the
	// matches found so far are returned.
	steps int64
}

// maxMatcherSteps bounds one FindInstances call. Large enough that every
// pattern in the benchmark suite completes exhaustively; small enough
// that adversarially symmetric patterns return promptly.
const maxMatcherSteps = 2_000_000

// FindInstances returns the node sets in target that are instances of the
// cut pattern (taken from patBlk). Matches are restricted to the available
// set when it is non-nil; forbidden nodes never match. The pattern's own
// occurrence is returned too when it lies within available. limit > 0
// bounds the number of matches returned (0 = unlimited). Matches are
// deduplicated by node set.
func FindInstances(patBlk *ir.Block, cut *graph.BitSet, target *ir.Block, available *graph.BitSet, limit int) []*graph.BitSet {
	if cut.Empty() {
		return nil
	}
	m := newMatcher(newPattern(patBlk, cut), target, available, limit)
	m.search(0)
	return dedup(m.out)
}

// newMatcher prepares the search of pattern p in target: no node
// assigned, no port bound, candidate lists indexed. It returns a value so
// the matcher can live on the caller's stack.
func newMatcher(p *pattern, target *ir.Block, available *graph.BitSet, limit int) matcher {
	m := matcher{
		p:         p,
		blk:       target,
		available: available,
		assign:    make([]int, len(p.nodes)),
		used:      graph.NewBitSet(target.N()),
		limit:     limit,
	}
	for i := range m.assign {
		m.assign[i] = -1
	}
	m.byOp = make([][]int, len(p.ops))
	if available != nil {
		// Only nodes in available can ever match (tryNode rejects the
		// rest), so index just those — a word-level walk of the set
		// instead of a per-index scan over every node.
		for v := available.NextSet(0); v >= 0; v = available.NextSet(v + 1) {
			m.index(v)
		}
	} else {
		for v := 0; v < target.N(); v++ {
			m.index(v)
		}
	}
	return m
}

// index appends target node v to the candidate list of its opcode, if
// the pattern uses that opcode.
func (m *matcher) index(v int) {
	if k := m.p.slotOf(m.blk.Nodes[v].Op); k >= 0 {
		m.byOp[k] = append(m.byOp[k], v)
	}
}

func dedup(sets []*graph.BitSet) []*graph.BitSet {
	var out []*graph.BitSet
	for _, s := range sets {
		dup := false
		for _, o := range out {
			if o.Equal(s) {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, s)
		}
	}
	return out
}

func (m *matcher) done() bool {
	return (m.limit > 0 && len(m.out) >= m.limit) || m.steps > maxMatcherSteps
}

func (m *matcher) search(i int) {
	m.steps++
	if m.done() {
		return
	}
	if i == len(m.p.nodes) {
		m.accept()
		return
	}
	pv := m.p.nodes[i]
	pnode := &m.p.blk.Nodes[pv]

	// Candidate generation: if some matched pattern node is a
	// predecessor of pv, candidates are successors of its image;
	// otherwise scan all nodes.
	var candidates []int
	narrowed := false
	for _, a := range pnode.Args {
		if a.Kind != ir.FromNode {
			continue
		}
		if pi := m.p.indexOf(a.Index); pi >= 0 && m.assign[pi] >= 0 {
			candidates = m.blk.DAG().Succs(m.assign[pi])
			narrowed = true
			break
		}
	}
	if !narrowed {
		candidates = m.byOp[m.p.opSlot[i]]
	}
	for _, v := range candidates {
		if m.tryNode(i, v) {
			m.search(i + 1)
			m.unassign(i, v)
			if m.done() {
				return
			}
		}
	}
}

// tryNode attempts to map pattern index i to target node v, committing the
// port-map additions on success.
func (m *matcher) tryNode(i, v int) bool {
	pv := m.p.nodes[i]
	pnode := &m.p.blk.Nodes[pv]
	tnode := &m.blk.Nodes[v]
	if tnode.Op != pnode.Op {
		return false
	}
	if pnode.Op == ir.OpConst && tnode.Imm != pnode.Imm {
		return false
	}
	if m.used.Has(v) {
		return false
	}
	if m.available != nil && !m.available.Has(v) {
		return false
	}
	if m.blk.ForbiddenInCut(v) {
		return false
	}

	ok, added := m.argsCompatible(pnode, tnode)
	if !ok {
		return false
	}
	m.assign[i] = v
	m.used.Set(v)
	// Stash the frame's port-key count for rollback on unassign.
	m.assignPorts = append(m.assignPorts, added)
	return true
}

// popPorts removes the k most recently added port bindings.
func (m *matcher) popPorts(k int) {
	m.portStack = m.portStack[:len(m.portStack)-k]
}

// boundPort returns the target port bound to pattern port pk, if any.
func (m *matcher) boundPort(pk int) (int, bool) {
	for _, b := range m.portStack {
		if b.pat == pk {
			return b.tgt, true
		}
	}
	return 0, false
}

func (m *matcher) unassign(i, v int) {
	added := m.assignPorts[len(m.assignPorts)-1]
	m.assignPorts = m.assignPorts[:len(m.assignPorts)-1]
	m.popPorts(added)
	m.used.Clear(v)
	m.assign[i] = -1
}

// argsCompatible checks operand wiring between a pattern node and its
// candidate image, trying the swapped order too for commutative ops.
// On success it returns how many port bindings were newly pushed onto
// portStack.
func (m *matcher) argsCompatible(pnode, tnode *ir.Node) (bool, int) {
	if ok, added := m.argsMatch(pnode.Args, tnode.Args); ok {
		return true, added
	}
	if pnode.Op.IsCommutative() && len(pnode.Args) == 2 {
		swapped := [2]ir.Operand{tnode.Args[1], tnode.Args[0]}
		if ok, added := m.argsMatch(pnode.Args, swapped[:]); ok {
			return true, added
		}
	}
	return false, 0
}

// argsMatch checks operand wiring position by position, pushing newly
// bound external ports onto the shared portStack; it returns how many it
// added (already rolled back on failure).
func (m *matcher) argsMatch(pargs, targs []ir.Operand) (bool, int) {
	added := 0
	for j := range pargs {
		pa, ta := pargs[j], targs[j]
		// Immediate operands are part of the AFU datapath: they must
		// match exactly.
		if pa.Kind == ir.FromImm || ta.Kind == ir.FromImm {
			if pa != ta {
				m.popPorts(added)
				return false, 0
			}
			continue
		}
		if pi, internal := m.patternIndexOf(pa); internal {
			// Internal pattern edge: the image must be the mapped node.
			if m.assign[pi] < 0 {
				// Producer not yet mapped: cannot happen with
				// topological match order, but guard anyway.
				m.popPorts(added)
				return false, 0
			}
			if ta.Kind != ir.FromNode || ta.Index != m.assign[pi] {
				m.popPorts(added)
				return false, 0
			}
			continue
		}
		// External pattern port: the image operand must be external to
		// the instance and consistent with previous uses of this port.
		if ta.Kind == ir.FromNode && m.used.Has(ta.Index) {
			m.popPorts(added)
			return false, 0
		}
		pk, tk := portKey(pa), portKey(ta)
		if prev, ok := m.boundPort(pk); ok {
			if prev != tk {
				m.popPorts(added)
				return false, 0
			}
			continue
		}
		m.portStack = append(m.portStack, portBinding{pk, tk})
		added++
	}
	return true, added
}

// patternIndexOf reports whether operand o refers to a node inside the
// pattern, returning its match-order index.
func (m *matcher) patternIndexOf(o ir.Operand) (int, bool) {
	if o.Kind != ir.FromNode {
		return 0, false
	}
	pi := m.p.indexOf(o.Index)
	return pi, pi >= 0
}

// accept validates the completed mapping (convexity, escape compatibility)
// and records the instance.
func (m *matcher) accept() {
	inst := graph.NewBitSet(m.blk.N())
	for _, v := range m.assign {
		inst.Set(v)
	}
	// Escape compatibility: any instance value needed outside must map
	// to a pattern output port.
	for i, v := range m.assign {
		if !m.blk.Nodes[v].Op.HasValue() {
			continue
		}
		escapes := m.blk.LiveOut.Has(v)
		if !escapes {
			for _, u := range m.blk.Uses(v) {
				if !inst.Has(u) {
					escapes = true
					break
				}
			}
		}
		if escapes && !m.p.escapes[i] {
			return
		}
	}
	if !m.blk.DAG().IsConvex(inst) {
		return
	}
	m.out = append(m.out, inst)
}

// Instance locates one occurrence of a cut in a specific block of an
// application.
type Instance struct {
	BlockIdx int
	Nodes    *graph.BitSet
}

// FindAppInstances searches every block of the application for instances
// of the cut identified in app.Blocks[patIdx], restricted to the per-block
// available sets (nil entries mean fully available). perBlockLimit bounds
// the matches per block (0 = unlimited).
func FindAppInstances(app *ir.Application, patIdx int, cut *graph.BitSet, available []*graph.BitSet, perBlockLimit int) []Instance {
	var out []Instance
	patBlk := app.Blocks[patIdx]
	for bi, blk := range app.Blocks {
		var avail *graph.BitSet
		if available != nil {
			avail = available[bi]
		}
		for _, inst := range FindInstances(patBlk, cut, blk, avail, perBlockLimit) {
			out = append(out, Instance{BlockIdx: bi, Nodes: inst})
		}
	}
	return out
}

// ClaimDisjoint greedily selects pairwise-disjoint instances (per block)
// from the candidate list, in order, always including any instance equal
// to the seed cut first.
func ClaimDisjoint(candidates []Instance, seedBlk int, seed *graph.BitSet) []Instance {
	var picked []Instance
	claimed := map[int]*graph.BitSet{}
	take := func(in Instance) {
		c, ok := claimed[in.BlockIdx]
		if !ok {
			c = graph.NewBitSet(in.Nodes.Cap())
			claimed[in.BlockIdx] = c
		}
		c.Or(in.Nodes)
		picked = append(picked, in)
	}
	for _, in := range candidates {
		if in.BlockIdx == seedBlk && in.Nodes.Equal(seed) {
			take(in)
			break
		}
	}
	for _, in := range candidates {
		if in.BlockIdx == seedBlk && in.Nodes.Equal(seed) {
			continue
		}
		if c, ok := claimed[in.BlockIdx]; ok && c.Intersects(in.Nodes) {
			continue
		}
		take(in)
	}
	return picked
}
