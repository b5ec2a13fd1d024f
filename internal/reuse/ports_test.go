package reuse

import (
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/ir"
)

// cutOf returns the node set {ids} sized for blk.
func cutOf(blk *ir.Block, ids ...int) *graph.BitSet {
	c := graph.NewBitSet(blk.N())
	for _, v := range ids {
		c.Set(v)
	}
	return c
}

// A commutative pattern node whose direct operand order binds one external
// port and then clashes on the second operand must leave no binding behind:
// the swapped order then binds the same pattern port to a different target
// value and matches.
func TestPortRollbackCommutativeSwap(t *testing.T) {
	// Pattern: n0 = i1*i1 binds i1; n1 = i0+i1.
	pb := ir.NewBuilder("pat", 1)
	i0, i1 := pb.Input("i0"), pb.Input("i1")
	n0 := pb.Mul(i1, i1)
	n1 := pb.Add(i0, i1)
	pb.LiveOut(n0, n1)
	pat := pb.MustBuild()

	// Target: m0 = X*X binds i1 -> X; m1 = X+Y. Direct order binds
	// i0 -> X, then i1 -> Y clashes; swapped binds i0 -> Y, i1 -> X.
	tb := ir.NewBuilder("tgt", 1)
	x, y := tb.Input("x"), tb.Input("y")
	m0 := tb.Mul(x, x)
	m1 := tb.Add(x, y)
	tb.LiveOut(m0, m1)
	tgt := tb.MustBuild()

	cut := cutOf(pat, 0, 1)
	got := FindInstances(pat, cut, tgt, nil, 0)
	if len(got) != 1 || !got[0].Equal(cutOf(tgt, 0, 1)) {
		t.Fatalf("instances = %v, want [{0, 1}]", got)
	}

	// The port stack after each step, in binding order.
	const pI0, pI1, tX, tY = -1, -2, -1, -2
	m := newMatcher(newPattern(pat, cut), tgt, nil, 0)
	if !m.tryNode(0, 0) {
		t.Fatal("n0 must map to m0")
	}
	if want := []portBinding{{pI1, tX}}; !slices.Equal(m.portStack, want) {
		t.Fatalf("after n0: port stack %v, want %v", m.portStack, want)
	}
	if !m.tryNode(1, 1) {
		t.Fatal("n1 must map to m1 in swapped operand order")
	}
	if want := []portBinding{{pI1, tX}, {pI0, tY}}; !slices.Equal(m.portStack, want) {
		t.Fatalf("after n1: port stack %v, want %v (the failed direct order left a binding)", m.portStack, want)
	}
	m.unassign(1, 1)
	if want := []portBinding{{pI1, tX}}; !slices.Equal(m.portStack, want) {
		t.Fatalf("after unassigning n1: port stack %v, want %v", m.portStack, want)
	}
}

// Backtracking out of a pattern node pops only that node's bindings: a port
// bound by an earlier pattern node still rejects a clashing binding for the
// next candidate.
func TestPortRollbackKeepsEarlierBindings(t *testing.T) {
	// Pattern: n0 = i0*i0 binds i0; n1 = i1-i0; n2 = n1^i2.
	pb := ir.NewBuilder("pat", 1)
	i0, i1, i2 := pb.Input("i0"), pb.Input("i1"), pb.Input("i2")
	n0 := pb.Mul(i0, i0)
	n1 := pb.Sub(i1, i0)
	n2 := pb.Xor(n1, i2)
	pb.LiveOut(n0, n2)
	pat := pb.MustBuild()

	// Target: m0 = X*X binds i0 -> X. The sub candidates, in ID order:
	//   1: Z-X  consistent, but has no xor successor, so n2 backtracks;
	//   2: W-Y  clashes with i0 -> X and must be rejected;
	//   3: V-X  consistent, completed by 4: (V-X)^W.
	tb := ir.NewBuilder("tgt", 1)
	x, y, z, w, v := tb.Input("x"), tb.Input("y"), tb.Input("z"), tb.Input("w"), tb.Input("v")
	m0 := tb.Mul(x, x)
	dead := tb.Sub(z, x)
	clash := tb.Sub(w, y)
	good := tb.Sub(v, x)
	tb.LiveOut(m0, dead, tb.Xor(clash, v), tb.Xor(good, w))
	tgt := tb.MustBuild()

	cut := cutOf(pat, 0, 1, 2)
	got := FindInstances(pat, cut, tgt, nil, 0)
	if len(got) != 1 || !got[0].Equal(cutOf(tgt, 0, 3, 5)) {
		t.Fatalf("instances = %v, want [{0, 3, 5}]", got)
	}

	const pI0, pI1, tX, tZ = -1, -2, -1, -3
	m := newMatcher(newPattern(pat, cut), tgt, nil, 0)
	if !m.tryNode(0, 0) || !m.tryNode(1, 1) {
		t.Fatal("n0, n1 must map to m0 and Z-X")
	}
	if want := []portBinding{{pI0, tX}, {pI1, tZ}}; !slices.Equal(m.portStack, want) {
		t.Fatalf("after n1: port stack %v, want %v", m.portStack, want)
	}
	m.unassign(1, 1)
	if want := []portBinding{{pI0, tX}}; !slices.Equal(m.portStack, want) {
		t.Fatalf("after backtracking n1: port stack %v, want %v", m.portStack, want)
	}
	if m.tryNode(1, 2) {
		t.Fatal("W-Y must clash with i0 -> X after backtracking")
	}
	if want := []portBinding{{pI0, tX}}; !slices.Equal(m.portStack, want) {
		t.Fatalf("after the rejected candidate: port stack %v, want %v", m.portStack, want)
	}
}
