package core

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/latency"
)

// TestStateLiveOutOutputCounting: live-out nodes keep their output port
// even with all consumers inside the cut.
func TestStateLiveOutOutputCounting(t *testing.T) {
	bu := ir.NewBuilder("lo", 1)
	a := bu.Input("a")
	v1 := bu.Add(a, a)
	v2 := bu.Neg(v1)
	bu.LiveOut(v1, v2)
	blk := bu.MustBuild()
	st := NewState(blk, latency.Default(), nil)
	st.Toggle(0)
	st.Toggle(1)
	if st.NumOut() != 2 {
		t.Errorf("outputs = %d, want 2 (both live-out)", st.NumOut())
	}
	if st.NumIn() != 1 {
		t.Errorf("inputs = %d, want 1", st.NumIn())
	}
}

// TestStateSharedInputCountedOnce: one external value feeding several cut
// nodes occupies one port.
func TestStateSharedInputCountedOnce(t *testing.T) {
	bu := ir.NewBuilder("shared", 1)
	a, b := bu.Input("a"), bu.Input("b")
	v1 := bu.Add(a, b)
	v2 := bu.Sub(a, b)
	v3 := bu.Xor(v1, v2)
	bu.LiveOut(v3)
	blk := bu.MustBuild()
	st := NewState(blk, latency.Default(), nil)
	for v := 0; v < 3; v++ {
		st.Toggle(v)
	}
	if st.NumIn() != 2 {
		t.Errorf("inputs = %d, want 2 (a and b shared)", st.NumIn())
	}
	if st.NumOut() != 1 {
		t.Errorf("outputs = %d, want 1", st.NumOut())
	}
}

// TestHWCyclesBoundaries pins the cycle-rounding behaviour.
func TestHWCyclesBoundaries(t *testing.T) {
	cases := []struct {
		cp   float64
		want int
	}{
		{0, 0}, {-1, 0}, {0.0001, 1}, {0.3, 1}, {1.0, 1},
		{1.0000000001, 1}, // epsilon guard
		{1.2, 2}, {2.0, 2}, {2.7, 3},
	}
	for _, c := range cases {
		if got := HWCycles(c.cp); got != c.want {
			t.Errorf("HWCycles(%v) = %d, want %d", c.cp, got, c.want)
		}
	}
	if MeritOf(5, 1.2) != 3 {
		t.Errorf("MeritOf(5, 1.2) = %v, want 3", MeritOf(5, 1.2))
	}
	if MeritOf(3, 0) != 3 {
		t.Errorf("MeritOf(3, 0) = %v, want 3 (empty-cut hw)", MeritOf(3, 0))
	}
}

// TestSetCutPanicsOnFrozen guards the driver invariant.
func TestSetCutPanicsOnFrozen(t *testing.T) {
	bu := ir.NewBuilder("fz", 1)
	a := bu.Input("a")
	ld := bu.Load(a)
	v := bu.Add(ld, a)
	bu.LiveOut(v)
	blk := bu.MustBuild()
	st := NewState(blk, latency.Default(), nil)
	bad := graph.NewBitSet(2)
	bad.Set(0) // the load
	defer func() {
		if recover() == nil {
			t.Fatal("SetCut with frozen node should panic")
		}
	}()
	st.SetCut(bad)
}

// TestBlockPotentialOrdering: hotter/denser blocks must rank first.
func TestBlockPotentialOrdering(t *testing.T) {
	model := latency.Default()
	mk := func(freq float64, muls int) *ir.Block {
		bu := ir.NewBuilder("b", freq)
		a, b := bu.Input("a"), bu.Input("b")
		v := bu.Add(a, b)
		for i := 0; i < muls; i++ {
			v = bu.Mul(v, b)
		}
		bu.LiveOut(v)
		return bu.MustBuild()
	}
	hotDense := mk(100, 4)
	coldDense := mk(1, 4)
	hotThin := mk(100, 0)
	pHD := BlockPotential(hotDense, model, graph.NewBitSet(hotDense.N()))
	pCD := BlockPotential(coldDense, model, graph.NewBitSet(coldDense.N()))
	pHT := BlockPotential(hotThin, model, graph.NewBitSet(hotThin.N()))
	if !(pHD > pCD && pHD > pHT) {
		t.Errorf("potential ordering wrong: HD=%v CD=%v HT=%v", pHD, pCD, pHT)
	}
	// Excluding everything zeroes the potential.
	all := graph.NewBitSet(hotDense.N())
	for v := 0; v < hotDense.N(); v++ {
		all.Set(v)
	}
	if p := BlockPotential(hotDense, model, all); p != 0 {
		t.Errorf("fully excluded potential = %v, want 0", p)
	}
}

// TestEngineMeritMatchesMetricsOf: the Cut returned by Bipartition agrees
// with the standalone metric computation.
func TestEngineMeritMatchesMetricsOf(t *testing.T) {
	bu := ir.NewBuilder("agree", 1)
	a, b, c := bu.Input("a"), bu.Input("b"), bu.Input("c")
	v := bu.Add(bu.Mul(a, b), bu.Shl(c, b))
	bu.LiveOut(v)
	blk := bu.MustBuild()
	eng, err := NewEngine(blk, DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	cut := eng.Bipartition()
	if cut == nil {
		t.Fatal("no cut")
	}
	m := MetricsOf(blk, latency.Default(), cut.Nodes)
	if !m.Convex() || m.SWLat != cut.SWLat || math.Abs(m.HWLat-cut.HWLat) > 1e-9 ||
		m.NumIn != cut.NumIn || m.NumOut != cut.NumOut {
		t.Errorf("cut fields disagree with MetricsOf: %+v vs %+v", cut, m)
	}
}
