package core

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/ir"
)

// gainHarness exposes the trajectory internals for focused gain tests.
func gainHarness(t *testing.T, blk *ir.Block, cfg Config) *trajectory {
	t.Helper()
	if _, err := NewEngine(blk, cfg, nil); err != nil {
		t.Fatal(err)
	}
	tr := &trajectory{
		cfg:     &cfg,
		st:      NewState(blk, cfg.Model, nil),
		marked:  graph.NewBitSet(blk.N()),
		curBest: graph.NewBitSet(blk.N()),
	}
	tr.prepareGainContext()
	return tr
}

// TestGainIOPenaltyDominates: a candidate that violates the port limits
// must score far below one that does not, all else similar.
func TestGainIOPenaltyDominates(t *testing.T) {
	// Two independent adds; under (2,1), the second add (different
	// inputs) violates ports once the first is in the cut.
	bu := ir.NewBuilder("io", 1)
	a, b := bu.Input("a"), bu.Input("b")
	c, d := bu.Input("c"), bu.Input("d")
	s1 := bu.Add(a, b)
	s2 := bu.Add(c, d)
	x := bu.Xor(s1, s1) // consumer keeping s1 internal-able
	bu.LiveOut(x, s2)
	blk := bu.MustBuild()

	cfg := DefaultConfig()
	cfg.MaxIn, cfg.MaxOut = 2, 1
	eng := gainHarness(t, blk, cfg)
	eng.st.Toggle(0) // s1 in H
	eng.prepareGainContext()

	gViolating := kernelGain(t, eng, 1) // adding s2: 4 inputs, 2 outputs -> violation
	gFriendly := kernelGain(t, eng, 2)  // adding the xor consumer of s1
	if gViolating >= gFriendly {
		t.Errorf("violating candidate gain %v should be far below friendly %v", gViolating, gFriendly)
	}
}

// TestGainConvexityTermSigns: adding a node with cut neighbours is
// preferred over an identical node without; removing a well-connected cut
// node is resisted.
func TestGainConvexityTermSigns(t *testing.T) {
	bu := ir.NewBuilder("conv", 1)
	a := bu.Input("a")
	n0 := bu.Add(a, a)
	n1 := bu.Xor(n0, a) // neighbour of n0
	n2 := bu.Xor(a, a)  // no relation to n0
	o := bu.Or(n1, n2)
	bu.LiveOut(o)
	blk := bu.MustBuild()

	cfg := DefaultConfig()
	// Isolate the neighbour term: zero everything else.
	cfg.Weights = Weights{Convexity: 1}
	eng := gainHarness(t, blk, cfg)
	eng.st.Toggle(0)
	eng.prepareGainContext()

	gNeighbour := kernelGain(t, eng, 1)
	gStranger := kernelGain(t, eng, 2)
	if gNeighbour <= gStranger {
		t.Errorf("neighbour gain %v must exceed stranger gain %v", gNeighbour, gStranger)
	}
	// Removing n0 (one cut neighbour... none in cut; its neighbour n1
	// is outside). Add n1 then check removal resistance of n0.
	eng.st.Toggle(1)
	eng.prepareGainContext()
	gRemove := kernelGain(t, eng, 0) // H->S toggle of n0, which has n1 in cut
	if gRemove >= 0 {
		t.Errorf("removal of connected node should have negative neighbour term, got %v", gRemove)
	}
}

// TestGainIndependentTermEncouragesRetreat: with several components in H,
// removing a node from a small component carries a positive independent
// term proportional to the *other* components' critical paths.
func TestGainIndependentTerm(t *testing.T) {
	bu := ir.NewBuilder("ind", 1)
	a, b := bu.Input("a"), bu.Input("b")
	m1 := bu.Mul(a, b) // component 1: heavy
	m2 := bu.Mul(m1, a)
	x := bu.Xor(a, b) // component 2: light
	bu.LiveOut(m2, x)
	blk := bu.MustBuild()

	cfg := DefaultConfig()
	cfg.Weights = Weights{Independent: 1}
	eng := gainHarness(t, blk, cfg)
	eng.st.Toggle(0)
	eng.st.Toggle(1)
	eng.st.Toggle(2) // H = {m1, m2} ∪ {x}
	eng.prepareGainContext()

	gX := kernelGain(t, eng, 2)  // removing the light xor: other component heavy
	gM2 := kernelGain(t, eng, 1) // removing m2: other component light
	if gX <= gM2 {
		t.Errorf("removing from the light component (%v) should be favoured over the heavy one (%v)", gX, gM2)
	}
	if gX <= 0 {
		t.Errorf("independent term must be positive when other components exist, got %v", gX)
	}
}

// TestGainMeritTieBreaker: between two zero-integer-merit candidates, the
// fractional slack prefers the cheaper operator.
func TestGainMeritTieBreaker(t *testing.T) {
	bu := ir.NewBuilder("tie", 1)
	a, b := bu.Input("a"), bu.Input("b")
	x := bu.Xor(a, b) // hw 0.05
	s := bu.Shl(a, b) // hw 0.20
	bu.LiveOut(x, s)
	blk := bu.MustBuild()

	cfg := DefaultConfig()
	cfg.Weights = Weights{Merit: 1}
	eng := gainHarness(t, blk, cfg)
	gx, gs := kernelGain(t, eng, 0), kernelGain(t, eng, 1)
	if gx <= gs {
		t.Errorf("xor (cheaper datapath) should tie-break above shl: %v vs %v", gx, gs)
	}
}

func TestSeedsDispersedAndDeterministic(t *testing.T) {
	bu := ir.NewBuilder("seeds", 1)
	a := bu.Input("a")
	v := a
	for i := 0; i < 40; i++ {
		v = bu.AddI(v, int32(i))
	}
	bu.LiveOut(v)
	blk := bu.MustBuild()

	cfg := DefaultConfig()
	cfg.Restarts = 4
	eng, err := NewEngine(blk, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	s1 := eng.Seeds()
	s2 := eng.Seeds()
	if len(s1) != 4 {
		t.Fatalf("got %d seeds, want 4", len(s1))
	}
	if !s1[0].Empty() {
		t.Error("first seed must be the empty cut")
	}
	var picks []int
	for i := 1; i < len(s1); i++ {
		if !s1[i].Equal(s2[i]) {
			t.Error("seeds must be deterministic")
		}
		if c := s1[i].Count(); c != 1 {
			t.Fatalf("seed %d has %d nodes, want 1", i, c)
		}
		picks = append(picks, s1[i].Elems()[0])
	}
	// Dispersion: on a 40-node chain the three singleton seeds must be
	// spread across thirds of the topological order.
	if !(picks[0] < picks[1] && picks[1] < picks[2]) {
		t.Errorf("seeds not ordered along the chain: %v", picks)
	}
	if picks[2]-picks[0] < 20 {
		t.Errorf("seeds not dispersed: %v", picks)
	}
}

// TestSeedsDistinctOnFewUnfrozenNodes: with fewer unfrozen nodes than
// Restarts-1 the dispersed picks collide; each collision would replay an
// identical trajectory, so Seeds must return every singleton once.
func TestSeedsDistinctOnFewUnfrozenNodes(t *testing.T) {
	bu := ir.NewBuilder("few", 1)
	a, b := bu.Input("a"), bu.Input("b")
	s := bu.Add(a, b)
	x := bu.Xor(s, a)
	bu.LiveOut(x)
	blk := bu.MustBuild()

	cfg := DefaultConfig()
	cfg.Restarts = 4
	eng, err := NewEngine(blk, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	seeds := eng.Seeds()
	if len(seeds) != 3 {
		t.Fatalf("got %d seeds, want 3 (empty cut plus one per unfrozen node)", len(seeds))
	}
	for i := range seeds {
		for j := i + 1; j < len(seeds); j++ {
			if seeds[i].Equal(seeds[j]) {
				t.Fatalf("seeds %d and %d are both %v", i, j, seeds[i])
			}
		}
	}
}

func TestCandidatesIncludeComponents(t *testing.T) {
	// Two disconnected MACs: the best cut under (8,4) packs both; the
	// candidate list must also contain each single MAC (a component).
	bu := ir.NewBuilder("comp", 1)
	a, b, c, d := bu.Input("a"), bu.Input("b"), bu.Input("c"), bu.Input("d")
	m1 := bu.Mul(a, b)
	s1 := bu.AddI(m1, 7)
	m2 := bu.Mul(c, d)
	s2 := bu.AddI(m2, 7)
	bu.LiveOut(s1, s2)
	blk := bu.MustBuild()

	cfg := DefaultConfig()
	cfg.MaxIn, cfg.MaxOut = 8, 4
	eng, err := NewEngine(blk, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	cands := eng.Candidates()
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	// Sorted by merit: the 4-node double MAC first.
	if cands[0].Size() != 4 {
		t.Errorf("best candidate size %d, want 4", cands[0].Size())
	}
	foundSingle := false
	for _, cand := range cands {
		if cand.Size() == 2 && cand.Nodes.Has(0) && cand.Nodes.Has(1) {
			foundSingle = true
			if math.Abs(cand.Merit()-2) > 1e-9 {
				t.Errorf("single MAC merit %v, want 2", cand.Merit())
			}
		}
	}
	if !foundSingle {
		t.Error("candidate pool missing the single-MAC component")
	}
	// All candidates must be feasible and positive-merit.
	for _, cand := range cands {
		m := MetricsOf(blk, cfg.Model, cand.Nodes)
		if !m.Convex() || m.NumIn > cfg.MaxIn || m.NumOut > cfg.MaxOut {
			t.Errorf("infeasible candidate %v", cand.Nodes)
		}
		if cand.Merit() <= 0 {
			t.Errorf("non-positive merit candidate %v", cand.Nodes)
		}
	}
}
