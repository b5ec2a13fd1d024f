package core

import (
	"slices"

	"repro/internal/graph"
)

// passCutoff proves, during one K-L pass, that no later state of the pass
// can be feasible (DESIGN.md, "Pass cutoff"). A marked node never toggles
// again within the pass, so every later cut S satisfies Fin ⊆ S and
// S ∩ Fout = ∅, with Fin = marked ∩ H and Fout = (marked \ H) ∪ Frozen.
// Three witnesses follow from that alone, each growing monotonically as
// nodes are marked:
//
//   - forced outputs: Fin nodes whose value is live out or consumed by a
//     Fout node are outputs of every later S;
//   - forced inputs: values consumed by Fin that are external inputs or
//     produced by Fout nodes are inputs of every later S;
//   - a forced violator: a Fout node with a Fin ancestor and a Fin
//     descendant violates the convexity of every later S.
//
// Once either count exceeds its port limit, or a forced violator exists,
// the rest of the pass can record no snapshot and move no best cut, so
// klLoop ends the pass there with the same output as a full pass.
type passCutoff struct {
	// slab backs the four word sets below with one allocation.
	slab []uint64
	// outs marks the Fin nodes counted as forced outputs, ins the values
	// counted as forced inputs; below and above are the cone unions
	// ∪ Desc(Fin) and ∪ Anc(Fin).
	outs, ins, below, above []uint64
	nOut, nIn               int
	// viol latches once a forced violator exists.
	viol bool
}

// newPassCutoff sizes the witness sets for n nodes and nv values.
func newPassCutoff(n, nv int) passCutoff {
	wn, wv := (n+63)/64, (nv+63)/64
	slab := make([]uint64, 3*wn+wv)
	return passCutoff{
		slab:  slab,
		outs:  slab[:wn:wn],
		below: slab[wn : 2*wn : 2*wn],
		above: slab[2*wn : 3*wn : 3*wn],
		ins:   slab[3*wn:],
	}
}

// reset empties the witnesses at the start of a pass, when nothing is
// marked yet.
func (c *passCutoff) reset() {
	clear(c.slab)
	c.nOut, c.nIn, c.viol = 0, 0, false
}

// note records that v has just been toggled and marked, and reports
// whether the marked nodes now make every later state of the pass
// infeasible. O(deg(v)) list walks plus O(n/64) word operations.
func (c *passCutoff) note(st *State, marked *graph.BitSet, v int, maxIn, maxOut int) bool {
	blk := st.Blk
	n := st.n
	fixedOut := func(u int) bool { return st.Frozen.Has(u) || (marked.Has(u) && !st.H.Has(u)) }
	fixedIn := func(u int) bool { return marked.Has(u) && st.H.Has(u) }
	// Nodes without a value have no uses and are never live out, so the
	// use walks below need no value check.
	if !st.H.Has(v) { // v joined Fout
		for _, src := range blk.Srcs(v) {
			if src < n && fixedIn(src) && !hasBit(c.outs, src) {
				setBit(c.outs, src)
				c.nOut++
			}
		}
		if slices.ContainsFunc(blk.Uses(v), fixedIn) {
			setBit(c.ins, v)
			c.nIn++
		}
		c.viol = c.viol || (hasBit(c.below, v) && hasBit(c.above, v))
		return c.nOut > maxOut || c.nIn > maxIn || c.viol
	}

	// v joined Fin.
	if blk.LiveOut.Has(v) || slices.ContainsFunc(blk.Uses(v), fixedOut) {
		setBit(c.outs, v)
		c.nOut++
	}
	for _, src := range blk.Srcs(v) {
		if (src >= n || fixedOut(src)) && !hasBit(c.ins, src) {
			setBit(c.ins, src)
			c.nIn++
		}
	}
	dag := blk.DAG()
	dw, aw := dag.Desc(v).Words(), dag.Anc(v).Words()
	mw, hw, fw := marked.Words(), st.H.Words(), st.Frozen.Words()
	for i := range c.below {
		c.below[i] |= dw[i]
		c.above[i] |= aw[i]
		if c.below[i]&c.above[i]&(fw[i]|mw[i]&^hw[i]) != 0 {
			c.viol = true
		}
	}
	return c.nOut > maxOut || c.nIn > maxIn || c.viol
}

func hasBit(w []uint64, i int) bool { return w[i/64]&(1<<(uint(i)%64)) != 0 }

func setBit(w []uint64, i int) { w[i/64] |= 1 << (uint(i) % 64) }
