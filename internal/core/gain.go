package core

import (
	"math/bits"

	"repro/internal/graph"
)

// Weights are the α1..α5 control parameters of the Section 4.2 gain
// function. The paper determines them experimentally; these are exposed so
// the ablation benchmarks can zero individual components.
type Weights struct {
	// Merit (α1) scales the speedup estimate of the post-toggle cut.
	Merit float64
	// IOPenalty (α2) scales the port-constraint violation penalty: one
	// unit per input or output port over the limit.
	IOPenalty float64
	// Convexity (α3) scales the neighbour term: adding a node whose
	// neighbours are already in the cut is favoured, removing a
	// well-connected cut node is resisted.
	Convexity float64
	// LargeCut (α4) scales the directional-growth term based on barrier
	// distances.
	LargeCut float64
	// Independent (α5) scales the independent-subgraph term that lets
	// cut nodes return to software so other components can grow.
	Independent float64
}

// DefaultWeights returns the control parameters used for all experiments.
// Like the paper's, they were determined experimentally: a grid search
// against exhaustive enumeration on 200 random kernels picked the setting
// that maximizes the fraction of exactly-optimal results (97%) while
// keeping the worst case above 70% of optimal; see
// BenchmarkAblation/weights for the per-component contribution.
func DefaultWeights() Weights {
	return Weights{
		Merit:       4.0,
		IOPenalty:   12.0,
		Convexity:   0.5,
		LargeCut:    0.05,
		Independent: 0.1,
	}
}

// gainContext carries the per-step precomputation shared by all candidate
// gain evaluations: the weakly connected components of H and their hardware
// critical paths, for the independent-cuts (α5) term.
//
// Component labels live in slots — compOf maps node → slot, order lists the
// live slots sorted by their smallest member — and are maintained
// incrementally across toggles when the effect is provably local:
//
//   - adding a node with no H-neighbours starts a fresh singleton slot;
//   - adding a node whose H-neighbours all share one slot joins it;
//   - removing a node with no H-neighbours retires its singleton slot;
//   - removing a node with exactly one H-neighbour cannot split the
//     component (a simple path cannot enter and leave through the same
//     neighbour), so the labels stand.
//
// Everything else — a toggle that merges several components, or a removal
// that might split one — invalidates the labels, and the next prepare
// rebuilds them from scratch with DAG.ComponentsInto into the same reused
// buffers. Per-component critical paths are re-derived every step by one
// sweep over H regardless (levels move on every toggle), and totalCP is
// summed over slots in ascending-smallest-member order — exactly the
// component order the full rebuild produces — so the α5 term is
// bit-identical whether a step took the incremental or the rebuild path.
type gainContext struct {
	compOf  []int     // node -> slot; -1 outside H (aliases sc.CompOf after a rebuild)
	compCP  []float64 // slot -> component critical path (re-derived each prepare)
	compMin []int     // slot -> smallest member node; -1 = free slot
	order   []int     // live slots sorted ascending by compMin (the float-sum order)
	free    []int     // retired slot indices available for reuse
	totalCP float64

	labelsValid bool
	// version is the State mutation count the labels reflect; prepare
	// rebuilds whenever it trails the state (a toggle bypassed noteToggle).
	version uint64

	sc graph.CompScratch
	// nbSlots is the scratch for collecting the distinct slots adjacent
	// to a toggled node.
	nbSlots []int

	// rebuilds counts full relabel sweeps — the incremental path's
	// fallback rate. Drained at trajectory boundaries alongside the
	// State tallies.
	rebuilds int64
}

// invalidate drops the labels; the next prepare rebuilds them.
func (gc *gainContext) invalidate() { gc.labelsValid = false }

// rebuild relabels the components of H from scratch (allocation-free after
// first use) and resets the slot bookkeeping to the canonical numbering:
// slot i is the component with the i-th smallest minimum member.
func (gc *gainContext) rebuild(st *State) {
	gc.rebuilds++
	ncomp := st.Blk.DAG().ComponentsInto(st.H, &gc.sc)
	gc.compOf = gc.sc.CompOf
	if cap(gc.compCP) < ncomp {
		gc.compCP = make([]float64, ncomp)
		gc.compMin = make([]int, ncomp)
		gc.order = make([]int, ncomp)
	}
	gc.compCP = gc.compCP[:ncomp]
	gc.compMin = gc.compMin[:ncomp]
	gc.order = gc.order[:ncomp]
	gc.free = gc.free[:0]
	for i := range gc.compMin {
		gc.compMin[i] = -1
	}
	for v := st.H.NextSet(0); v >= 0; v = st.H.NextSet(v + 1) {
		ci := gc.compOf[v]
		if gc.compMin[ci] == -1 {
			gc.compMin[ci] = v // ascending sweep: first sight is the min
		}
	}
	for i := range gc.order {
		gc.order[i] = i // ComponentsInto numbers by ascending min already
	}
	gc.labelsValid = true
	gc.version = st.version
}

// noteToggle maintains the component labels after st.Toggle(v) committed.
// It must be called with the post-toggle state; adding = st.H.Has(v).
func (gc *gainContext) noteToggle(st *State, v int) {
	if !gc.labelsValid {
		return
	}
	if st.version != gc.version+1 {
		gc.labelsValid = false
		return
	}
	gc.version = st.version
	dag := st.Blk.DAG()
	if st.H.Has(v) { // v was added
		// Collect the distinct slots among v's H-neighbours.
		gc.nbSlots = gc.nbSlots[:0]
		for _, lst := range [2][]int{dag.Preds(v), dag.Succs(v)} {
			for _, x := range lst {
				if !st.H.Has(x) {
					continue
				}
				s := gc.compOf[x]
				dup := false
				for _, seen := range gc.nbSlots {
					if seen == s {
						dup = true
						break
					}
				}
				if !dup {
					gc.nbSlots = append(gc.nbSlots, s)
				}
			}
		}
		switch len(gc.nbSlots) {
		case 0:
			gc.compOf[v] = gc.newSlot(v)
		case 1:
			s := gc.nbSlots[0]
			gc.compOf[v] = s
			if v < gc.compMin[s] {
				gc.compMin[s] = v
				gc.reposition(s)
			}
		default:
			// v bridges several components; rebuild rather than merge.
			gc.labelsValid = false
		}
		return
	}
	// v was removed.
	s := gc.compOf[v]
	gc.compOf[v] = -1
	switch {
	case st.nbrH[v] == 0:
		gc.retireSlot(s)
	case v == gc.compMin[s]:
		// The smallest member left; the new minimum (and hence the sum
		// order) needs a component sweep — rebuild instead.
		gc.labelsValid = false
	default:
		// A node with exactly one H-neighbour is a leaf of its component:
		// any path between two other members entering v would have to
		// leave through the same neighbour, so connectivity is unaffected
		// and the labels stand. More neighbours could mean a split.
		if st.nbrH[v] > 1 {
			gc.labelsValid = false
		}
	}
}

// newSlot claims a slot for a fresh singleton component {v} and inserts it
// into the sum order.
func (gc *gainContext) newSlot(v int) int {
	var s int
	if n := len(gc.free); n > 0 {
		s = gc.free[n-1]
		gc.free = gc.free[:n-1]
		gc.compMin[s] = v
	} else {
		s = len(gc.compMin)
		gc.compMin = append(gc.compMin, v)
		gc.compCP = append(gc.compCP, 0)
	}
	// Insert into order keeping compMin ascending.
	pos := len(gc.order)
	for pos > 0 && gc.compMin[gc.order[pos-1]] > v {
		pos--
	}
	gc.order = append(gc.order, 0)
	copy(gc.order[pos+1:], gc.order[pos:])
	gc.order[pos] = s
	return s
}

// retireSlot removes a now-empty slot from the order and frees it.
func (gc *gainContext) retireSlot(s int) {
	for i, o := range gc.order {
		if o == s {
			gc.order = append(gc.order[:i], gc.order[i+1:]...)
			break
		}
	}
	gc.compMin[s] = -1
	gc.free = append(gc.free, s)
}

// reposition restores the order invariant after slot s's compMin shrank
// (it can only move toward the front).
func (gc *gainContext) reposition(s int) {
	idx := -1
	for i, o := range gc.order {
		if o == s {
			idx = i
			break
		}
	}
	for idx > 0 && gc.compMin[gc.order[idx-1]] > gc.compMin[s] {
		gc.order[idx] = gc.order[idx-1]
		idx--
		gc.order[idx] = s
	}
}

// prepareGainContext brings the component table up to date for one
// best-gain selection step: labels are rebuilt only when a toggle
// invalidated them, while the per-component critical paths and their total
// are re-derived from the current levels by a single sweep over H.
func (t *trajectory) prepareGainContext() {
	st := t.st
	gc := &t.gc
	if !gc.labelsValid || gc.version != st.version {
		gc.rebuild(st)
	}
	for _, s := range gc.order {
		gc.compCP[s] = 0
	}
	for i, w := range st.H.Words() {
		for ; w != 0; w &= w - 1 {
			v := i*64 + bits.TrailingZeros64(w)
			s := gc.compOf[v]
			if st.level[v] > gc.compCP[s] {
				gc.compCP[s] = st.level[v]
			}
		}
	}
	gc.totalCP = 0
	for _, s := range gc.order {
		gc.totalCP += gc.compCP[s]
	}
}
