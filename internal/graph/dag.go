package graph

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"
)

// ErrCycle is returned when an operation that requires a DAG detects a cycle.
var ErrCycle = errors.New("graph: cycle detected")

// DAG is a directed acyclic graph over dense node IDs 0..N-1 with adjacency
// lists in both directions. Build it with NewDAG + AddEdge, then call Freeze
// to compute derived structures (topological order, reachability).
type DAG struct {
	n      int
	succs  [][]int
	preds  [][]int
	frozen bool

	topo    []int // node IDs in topological order
	topoPos []int // topoPos[v] = position of v in topo
	desc    []*BitSet
	anc     []*BitSet
}

// NewDAG returns an edgeless graph with n nodes.
func NewDAG(n int) *DAG {
	if n < 0 {
		panic(fmt.Sprintf("graph: NewDAG(%d): negative size", n))
	}
	return &DAG{
		n:     n,
		succs: make([][]int, n),
		preds: make([][]int, n),
	}
}

// N returns the number of nodes.
func (g *DAG) N() int { return g.n }

// AddEdge inserts the edge from -> to. Duplicate edges are ignored.
// AddEdge panics if called after Freeze.
func (g *DAG) AddEdge(from, to int) {
	if g.frozen {
		panic("graph: AddEdge after Freeze")
	}
	if from < 0 || from >= g.n || to < 0 || to >= g.n {
		panic(fmt.Sprintf("graph: AddEdge(%d, %d) out of range [0,%d)", from, to, g.n))
	}
	for _, s := range g.succs[from] {
		if s == to {
			return
		}
	}
	g.succs[from] = append(g.succs[from], to)
	g.preds[to] = append(g.preds[to], from)
}

// Succs returns the successor list of v. The caller must not modify it.
func (g *DAG) Succs(v int) []int { return g.succs[v] }

// Preds returns the predecessor list of v. The caller must not modify it.
func (g *DAG) Preds(v int) []int { return g.preds[v] }

// NumEdges returns the total edge count.
func (g *DAG) NumEdges() int {
	e := 0
	for _, s := range g.succs {
		e += len(s)
	}
	return e
}

// Freeze validates acyclicity and computes the topological order and the
// per-node ancestor/descendant bitsets. It must be called once after all
// edges are added and before any reachability query.
func (g *DAG) Freeze() error {
	if g.frozen {
		return nil
	}
	topo, err := g.topoSort()
	if err != nil {
		return err
	}
	g.topo = topo
	g.topoPos = make([]int, g.n)
	for i, v := range topo {
		g.topoPos[v] = i
	}

	g.desc = make([]*BitSet, g.n)
	g.anc = make([]*BitSet, g.n)
	for i := 0; i < g.n; i++ {
		g.desc[i] = NewBitSet(g.n)
		g.anc[i] = NewBitSet(g.n)
	}
	// Descendants: sweep in reverse topological order.
	for i := len(topo) - 1; i >= 0; i-- {
		v := topo[i]
		for _, s := range g.succs[v] {
			g.desc[v].Set(s)
			g.desc[v].Or(g.desc[s])
		}
	}
	// Ancestors: sweep in topological order.
	for _, v := range topo {
		for _, p := range g.preds[v] {
			g.anc[v].Set(p)
			g.anc[v].Or(g.anc[p])
		}
	}
	g.frozen = true
	return nil
}

// MustFreeze is Freeze but panics on cycle; convenient for programmatically
// constructed graphs that are acyclic by construction.
func (g *DAG) MustFreeze() {
	if err := g.Freeze(); err != nil {
		panic(err)
	}
}

func (g *DAG) topoSort() ([]int, error) {
	indeg := make([]int, g.n)
	for _, ss := range g.succs {
		for _, s := range ss {
			indeg[s]++
		}
	}
	// Kahn's algorithm with a deterministic (sorted) frontier so that the
	// topological order is stable across runs.
	frontier := make([]int, 0, g.n)
	for v := 0; v < g.n; v++ {
		if indeg[v] == 0 {
			frontier = append(frontier, v)
		}
	}
	topo := make([]int, 0, g.n)
	for len(frontier) > 0 {
		v := frontier[0]
		frontier = frontier[1:]
		topo = append(topo, v)
		added := false
		for _, s := range g.succs[v] {
			indeg[s]--
			if indeg[s] == 0 {
				frontier = append(frontier, s)
				added = true
			}
		}
		if added {
			sort.Ints(frontier)
		}
	}
	if len(topo) != g.n {
		return nil, ErrCycle
	}
	return topo, nil
}

// Topo returns the node IDs in topological order. Requires Freeze.
func (g *DAG) Topo() []int {
	g.requireFrozen("Topo")
	return g.topo
}

// TopoPos returns the position of v in the topological order. Requires Freeze.
func (g *DAG) TopoPos(v int) int {
	g.requireFrozen("TopoPos")
	return g.topoPos[v]
}

// Desc returns the descendant set of v (excluding v). Requires Freeze.
// The caller must not modify the returned set.
func (g *DAG) Desc(v int) *BitSet {
	g.requireFrozen("Desc")
	return g.desc[v]
}

// Anc returns the ancestor set of v (excluding v). Requires Freeze.
// The caller must not modify the returned set.
func (g *DAG) Anc(v int) *BitSet {
	g.requireFrozen("Anc")
	return g.anc[v]
}

// Reaches reports whether there is a directed path from a to b (a != b).
func (g *DAG) Reaches(a, b int) bool {
	g.requireFrozen("Reaches")
	return g.desc[a].Has(b)
}

func (g *DAG) requireFrozen(op string) {
	if !g.frozen {
		panic("graph: " + op + " before Freeze")
	}
}

// IsConvex reports whether the cut is convex: there is no path from a node
// in the cut to another node in the cut that passes through a node outside
// the cut. Equivalently no outside node has both an ancestor and a
// descendant inside the cut, i.e. none lies in both the union of the cut
// members' descendant cones and the union of their ancestor cones.
func (g *DAG) IsConvex(cut *BitSet) bool {
	g.requireFrozen("IsConvex")
	return g.coneViolators(cut, true) == 0
}

// ViolatorCount returns the number of outside nodes that witness
// non-convexity of the cut (nodes with both an ancestor and a descendant
// inside it); 0 exactly when IsConvex holds.
func (g *DAG) ViolatorCount(cut *BitSet) int {
	g.requireFrozen("ViolatorCount")
	return g.coneViolators(cut, false)
}

// coneViolators is the cone union behind IsConvex and ViolatorCount: for
// each word it ORs the cut members' descendant and ancestor words and
// popcounts below & above &^ cut. With first set it stops at the first
// nonzero word, so the result is then only zero or not. The cones are
// unioned one word at a time (cut members inner, words outer): O(|cut|·n/64)
// word operations, no allocation.
func (g *DAG) coneViolators(cut *BitSet, first bool) int {
	cw := cut.words[:(g.n+wordBits-1)/wordBits]
	count := 0
	for i := range cw {
		var below, above uint64
		for j, w := range cw {
			for w != 0 {
				c := j*wordBits + bits.TrailingZeros64(w)
				w &= w - 1
				below |= g.desc[c].words[i]
				above |= g.anc[c].words[i]
			}
		}
		if viol := below & above &^ cw[i]; viol != 0 {
			count += bits.OnesCount64(viol)
			if first {
				return count
			}
		}
	}
	return count
}

// CompScratch carries the reusable buffers of DAG.ComponentsInto. The zero
// value is ready to use; the buffers grow to the graph size on first use and
// are reused on every subsequent call, so a per-toggle caller labels
// components without allocating.
type CompScratch struct {
	// CompOf maps node -> component index after ComponentsInto (-1 for
	// nodes outside the labeled set). Valid until the next call.
	CompOf []int
	stack  []int
}

// ComponentsInto is the allocation-free core of ComponentsOf: it labels the
// weakly connected components of set (considering only edges with both
// endpoints in the set) into sc.CompOf and returns the component count.
// Components are numbered in ascending order of their smallest member —
// exactly the order ComponentsOf returns them in — because the ascending
// sweep starts each traversal from the smallest not-yet-labeled node.
func (g *DAG) ComponentsInto(set *BitSet, sc *CompScratch) int {
	if cap(sc.CompOf) < g.n {
		sc.CompOf = make([]int, g.n)
	}
	sc.CompOf = sc.CompOf[:g.n]
	compOf := sc.CompOf
	for i := range compOf {
		compOf[i] = -1
	}
	ncomp := 0
	stack := sc.stack[:0]
	for start := set.NextSet(0); start >= 0; start = set.NextSet(start + 1) {
		if compOf[start] >= 0 {
			continue
		}
		id := ncomp
		ncomp++
		stack = append(stack, start)
		compOf[start] = id
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, s := range g.succs[v] {
				if set.Has(s) && compOf[s] < 0 {
					compOf[s] = id
					stack = append(stack, s)
				}
			}
			for _, p := range g.preds[v] {
				if set.Has(p) && compOf[p] < 0 {
					compOf[p] = id
					stack = append(stack, p)
				}
			}
		}
	}
	sc.stack = stack[:0]
	return ncomp
}

// ComponentsOf partitions the nodes of the given set into weakly connected
// components, considering only edges with both endpoints in the set.
// Components are returned with node IDs sorted ascending and components
// ordered by their smallest node. Allocation-sensitive callers should use
// ComponentsInto, which produces the same partition as flat labels into a
// reusable scratch buffer.
func (g *DAG) ComponentsOf(set *BitSet) [][]int {
	var sc CompScratch
	ncomp := g.ComponentsInto(set, &sc)
	comps := make([][]int, ncomp)
	set.ForEach(func(v int) bool {
		ci := sc.CompOf[v]
		comps[ci] = append(comps[ci], v)
		return true
	})
	return comps
}

// LongestPath returns, for each node in the set, the length of the longest
// weighted path within the set that ends at the node (weights given per
// node; a single node path has length weight(v)). It also returns the
// overall maximum, which is the critical path of the induced subgraph.
// Nodes outside the set get 0.
func (g *DAG) LongestPath(set *BitSet, weight func(v int) float64) (ending []float64, critical float64) {
	g.requireFrozen("LongestPath")
	ending = make([]float64, g.n)
	for _, v := range g.topo {
		if !set.Has(v) {
			continue
		}
		best := 0.0
		for _, p := range g.preds[v] {
			if set.Has(p) && ending[p] > best {
				best = ending[p]
			}
		}
		ending[v] = best + weight(v)
		if ending[v] > critical {
			critical = ending[v]
		}
	}
	return ending, critical
}

// BarrierDistances computes, for every node, the minimum hop distance
// upward (through predecessors) and downward (through successors) to a
// barrier. A node that is itself a barrier has distance 0 both ways. Nodes
// with no predecessors (graph inputs) count as touching an upward barrier at
// distance 1, and nodes with no successors touch a downward barrier at
// distance 1, because the external boundary of the block is a barrier in
// the paper's model.
func (g *DAG) BarrierDistances(isBarrier func(v int) bool) (up, down []int) {
	g.requireFrozen("BarrierDistances")
	up = make([]int, g.n)
	down = make([]int, g.n)
	for _, v := range g.topo {
		if isBarrier(v) {
			up[v] = 0
			continue
		}
		best := -1
		if len(g.preds[v]) == 0 {
			best = 1
		}
		for _, p := range g.preds[v] {
			d := up[p] + 1
			if best < 0 || d < best {
				best = d
			}
		}
		up[v] = best
	}
	for i := len(g.topo) - 1; i >= 0; i-- {
		v := g.topo[i]
		if isBarrier(v) {
			down[v] = 0
			continue
		}
		best := -1
		if len(g.succs[v]) == 0 {
			best = 1
		}
		for _, s := range g.succs[v] {
			d := down[s] + 1
			if best < 0 || d < best {
				best = d
			}
		}
		down[v] = best
	}
	return up, down
}
