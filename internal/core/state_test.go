package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/latency"
)

// buildChain builds a linear chain add->add->...->add with one live-out.
func buildChain(t testing.TB, n int) *ir.Block {
	t.Helper()
	bu := ir.NewBuilder("chain", 1)
	x, y := bu.Input("x"), bu.Input("y")
	v := bu.Add(x, y)
	for i := 1; i < n; i++ {
		v = bu.Add(v, y)
	}
	bu.LiveOut(v)
	return bu.MustBuild()
}

// buildDiamondBlock: n0=i0+i1; n1=n0<<i2; n2=n0^i3; n3=n1+n2 (live-out).
func buildDiamondBlock(t testing.TB) *ir.Block {
	t.Helper()
	bu := ir.NewBuilder("diamond", 1)
	in := bu.Inputs(4)
	n0 := bu.Add(in[0], in[1])
	n1 := bu.Shl(n0, in[2])
	n2 := bu.Xor(n0, in[3])
	n3 := bu.Add(n1, n2)
	bu.LiveOut(n3)
	return bu.MustBuild()
}

// randKernelBlock builds a random block mixing arithmetic and the odd
// memory op, for property tests.
func randKernelBlock(rng *rand.Rand, n int) *ir.Block {
	bu := ir.NewBuilder("rand", 1)
	ins := bu.Inputs(2 + rng.Intn(3))
	vals := append([]ir.Value{}, ins...)
	for i := 0; i < n; i++ {
		a := vals[rng.Intn(len(vals))]
		b := vals[rng.Intn(len(vals))]
		var v ir.Value
		switch rng.Intn(12) {
		case 0:
			v = bu.Mul(a, b)
		case 1:
			v = bu.Xor(a, b)
		case 2:
			v = bu.Shl(a, b)
		case 3:
			v = bu.Sub(a, b)
		case 4:
			v = bu.Min(a, b)
		case 5:
			v = bu.Select(a, b, vals[rng.Intn(len(vals))])
		case 6:
			v = bu.Load(a) // barrier node
		default:
			v = bu.Add(a, b)
		}
		vals = append(vals, v)
	}
	// A couple of random live-outs plus the final value.
	bu.LiveOut(vals[len(vals)-1])
	return bu.MustBuild()
}

// verifyAgainstReference checks every incremental quantity of the state
// against the reference computations.
func verifyAgainstReference(t *testing.T, st *State) {
	t.Helper()
	blk := st.Blk
	if got, want := st.NumIn(), blk.CutInputs(st.H); got != want {
		t.Fatalf("NumIn = %d, reference = %d (cut %v)", got, want, st.H)
	}
	if got, want := st.NumOut(), blk.CutOutputs(st.H); got != want {
		t.Fatalf("NumOut = %d, reference = %d (cut %v)", got, want, st.H)
	}
	if got, want := st.Convex(), blk.DAG().IsConvex(st.H); got != want {
		t.Fatalf("Convex = %v, reference = %v (cut %v)", got, want, st.H)
	}
	m := MetricsOf(blk, st.Model, st.H)
	if st.SWSum() != m.SWLat {
		t.Fatalf("SWSum = %d, reference = %d", st.SWSum(), m.SWLat)
	}
	if math.Abs(st.HWCP()-m.HWLat) > 1e-9 {
		t.Fatalf("HWCP = %v, reference = %v (cut %v)", st.HWCP(), m.HWLat, st.H)
	}
}

func TestStateEmptyCut(t *testing.T) {
	blk := buildDiamondBlock(t)
	st := NewState(blk, latency.Default(), nil)
	if st.NumIn() != 0 || st.NumOut() != 0 || !st.Convex() || st.Merit() != 0 {
		t.Fatalf("empty cut state wrong: in=%d out=%d convex=%v merit=%v",
			st.NumIn(), st.NumOut(), st.Convex(), st.Merit())
	}
	if st.Feasible(4, 2) {
		t.Error("empty cut must not be feasible")
	}
}

func TestStateSingleToggle(t *testing.T) {
	blk := buildDiamondBlock(t)
	st := NewState(blk, latency.Default(), nil)
	st.Toggle(0) // the add feeding everything
	if st.NumIn() != 2 {
		t.Errorf("NumIn = %d, want 2", st.NumIn())
	}
	if st.NumOut() != 1 {
		t.Errorf("NumOut = %d, want 1 (one value, two consumers)", st.NumOut())
	}
	if !st.Convex() {
		t.Error("singleton must be convex")
	}
	verifyAgainstReference(t, st)
	st.Toggle(0)
	if st.NumIn() != 0 || st.NumOut() != 0 || st.SWSum() != 0 || st.HWCP() != 0 {
		t.Error("toggle back should restore the empty state exactly")
	}
}

func TestStateNonConvexIntermediate(t *testing.T) {
	blk := buildDiamondBlock(t)
	st := NewState(blk, latency.Default(), nil)
	st.Toggle(0)
	st.Toggle(3) // {0,3} is not convex: 1 and 2 violate
	if st.Convex() {
		t.Fatal("{0,3} should be non-convex")
	}
	if st.nviol != 2 {
		t.Errorf("nviol = %d, want 2", st.nviol)
	}
	st.Toggle(1)
	if st.Convex() {
		t.Fatal("{0,1,3} still non-convex (node 2)")
	}
	st.Toggle(2)
	if !st.Convex() {
		t.Fatal("full cut must be convex")
	}
	verifyAgainstReference(t, st)
}

// Figure 5 of the paper: the toggle of one node and the addendum updates on
// its neighbours. We reproduce the scenario: a 4-node DFG where node 3
// (with parents 1 and 2 and the child 4 in the paper's numbering) is
// toggled into hardware.
func TestStateFigure5Scenario(t *testing.T) {
	bu := ir.NewBuilder("fig5", 1)
	a, b, c, d := bu.Input("a"), bu.Input("b"), bu.Input("c"), bu.Input("d")
	n1 := bu.Add(a, b)
	n2 := bu.Add(c, d)
	n3 := bu.Mul(n1, n2) // the toggled node
	n4 := bu.Add(n3, d)
	bu.LiveOut(n4)
	blk := bu.MustBuild()

	st := NewState(blk, latency.Default(), nil)
	st.Toggle(2) // n3
	// ISE = {n3}: inputs are n1 and n2 (2), output n3 consumed by n4 (1).
	if st.NumIn() != 2 || st.NumOut() != 1 {
		t.Fatalf("after toggling mul: in=%d out=%d, want 2 and 1", st.NumIn(), st.NumOut())
	}
	verifyAgainstReference(t, st)

	// Toggling the parents in pulls their external inputs.
	st.Toggle(0)
	st.Toggle(1)
	if st.NumIn() != 4 || st.NumOut() != 1 {
		t.Fatalf("after pulling parents: in=%d out=%d, want 4 and 1", st.NumIn(), st.NumOut())
	}
	verifyAgainstReference(t, st)
}

// The Figure 3 rules are subsumed by exactness of the incremental state:
// this property test runs long random toggle sequences (including toggle
// backs, the paper's sign-reversal rule) on random DFGs and checks every
// incremental quantity against full recomputation at every step.
func TestStateIncrementalMatchesReferenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		blk := randKernelBlock(rng, 3+rng.Intn(30))
		st := NewState(blk, latency.Default(), nil)
		var togglable []int
		for v := 0; v < blk.N(); v++ {
			if !st.Frozen.Has(v) {
				togglable = append(togglable, v)
			}
		}
		if len(togglable) == 0 {
			continue
		}
		for step := 0; step < 60; step++ {
			v := togglable[rng.Intn(len(togglable))]
			st.Toggle(v)
			verifyAgainstReference(t, st)
		}
	}
}

// Property: Probe predicts exactly what Toggle then produces (with the
// documented exception that removal of a critical node reports the current
// hwCP as an upper bound).
func TestProbeMatchesToggleProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 25; trial++ {
		blk := randKernelBlock(rng, 3+rng.Intn(25))
		st := NewState(blk, latency.Default(), nil)
		var togglable []int
		for v := 0; v < blk.N(); v++ {
			if !st.Frozen.Has(v) {
				togglable = append(togglable, v)
			}
		}
		if len(togglable) == 0 {
			continue
		}
		for step := 0; step < 40; step++ {
			v := togglable[rng.Intn(len(togglable))]
			adding := !st.H.Has(v)
			eff := st.Probe(v)
			st.Toggle(v)
			if eff.NumIn != st.NumIn() || eff.NumOut != st.NumOut() {
				t.Fatalf("Probe IO (%d,%d) != actual (%d,%d)",
					eff.NumIn, eff.NumOut, st.NumIn(), st.NumOut())
			}
			if eff.Convex != st.Convex() {
				t.Fatalf("Probe convex %v != actual %v (toggle %d, adding=%v)",
					eff.Convex, st.Convex(), v, adding)
			}
			if eff.SWSum != st.SWSum() {
				t.Fatalf("Probe SWSum %d != actual %d", eff.SWSum, st.SWSum())
			}
			if adding {
				if math.Abs(eff.HWCP-st.HWCP()) > 1e-9 {
					t.Fatalf("Probe HWCP %v != actual %v on addition", eff.HWCP, st.HWCP())
				}
			} else if eff.HWCP < st.HWCP()-1e-9 {
				t.Fatalf("Probe HWCP %v below actual %v on removal (must be upper bound)",
					eff.HWCP, st.HWCP())
			}
		}
	}
}

func TestSetCut(t *testing.T) {
	blk := buildDiamondBlock(t)
	st := NewState(blk, latency.Default(), nil)
	cut := graph.NewBitSet(4)
	cut.Set(1)
	cut.Set(3)
	st.SetCut(cut)
	verifyAgainstReference(t, st)
	if !st.H.Equal(cut) {
		t.Fatal("SetCut did not apply")
	}
	st.SetCut(graph.NewBitSet(4))
	if !st.H.Empty() || st.NumIn() != 0 || st.NumOut() != 0 {
		t.Fatal("SetCut(empty) did not clear state")
	}
}

func TestFrozenNodes(t *testing.T) {
	bu := ir.NewBuilder("mem", 1)
	a := bu.Input("a")
	ld := bu.Load(a)
	v := bu.Add(ld, a)
	bu.LiveOut(v)
	blk := bu.MustBuild()
	st := NewState(blk, latency.Default(), nil)
	if !st.Frozen.Has(0) {
		t.Fatal("load must be frozen")
	}
	if st.Frozen.Has(1) {
		t.Fatal("add must not be frozen")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Toggle of frozen node should panic")
		}
	}()
	st.Toggle(0)
}

func TestExcludedNodesFrozen(t *testing.T) {
	blk := buildDiamondBlock(t)
	excl := graph.NewBitSet(4)
	excl.Set(2)
	st := NewState(blk, latency.Default(), excl)
	if !st.Frozen.Has(2) {
		t.Fatal("excluded node must be frozen")
	}
}

func TestChainCriticalPath(t *testing.T) {
	blk := buildChain(t, 10)
	st := NewState(blk, latency.Default(), nil)
	m := latency.Default()
	addHW, _ := m.HWLat(ir.OpAdd)
	for v := 0; v < 10; v++ {
		st.Toggle(v)
	}
	want := 10 * addHW
	if math.Abs(st.HWCP()-want) > 1e-9 {
		t.Fatalf("chain HWCP = %v, want %v", st.HWCP(), want)
	}
	if st.SWSum() != 10 {
		t.Fatalf("chain SWSum = %d, want 10", st.SWSum())
	}
	// Merit of the chain: 10 - 3.0 = 7.0.
	if math.Abs(st.Merit()-(10-want)) > 1e-9 {
		t.Fatalf("Merit = %v", st.Merit())
	}
	// Removing the middle node splits the path.
	st.Toggle(5)
	verifyAgainstReference(t, st)
	if math.Abs(st.HWCP()-5*addHW) > 1e-9 {
		t.Fatalf("split chain HWCP = %v, want %v", st.HWCP(), 5*addHW)
	}
}

func TestMetricsOfStandalone(t *testing.T) {
	blk := buildDiamondBlock(t)
	cut := graph.NewBitSet(4)
	cut.Set(0)
	cut.Set(3)
	got := MetricsOf(blk, latency.Default(), cut)
	if got.SWLat != 2 {
		t.Errorf("sw = %d, want 2", got.SWLat)
	}
	// Both middle nodes lie on a path that leaves and re-enters the cut.
	if got.NViol != 2 {
		t.Errorf("NViol = %d, want 2", got.NViol)
	}
	if got.NumIn != 4 || got.NumOut != 2 {
		t.Errorf("io = (%d,%d), want (4,2)", got.NumIn, got.NumOut)
	}
	m := latency.Default()
	addHW, _ := m.HWLat(ir.OpAdd)
	// The two adds are disconnected within the cut, so the critical path
	// is a single add, not their sum.
	if math.Abs(got.HWLat-addHW) > 1e-9 {
		t.Errorf("cp = %v, want %v", got.HWLat, addHW)
	}
}
