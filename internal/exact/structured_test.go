package exact

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/latency"
)

// TestIterativeOnStructuredBlock exercises the pruning on a block with the
// shape real kernels have (MAC taps + clamps) and checks the first cut is
// exactly the brute-force optimum.
func TestIterativeOnStructuredBlock(t *testing.T) {
	bu := ir.NewBuilder("macs", 1)
	acc := bu.Input("acc")
	sum := acc
	for i := 0; i < 4; i++ {
		x, y := bu.Input("x"), bu.Input("y")
		p := bu.Mul(x, y)
		sum = bu.Add(sum, p)
	}
	cl := bu.Min(sum, bu.Imm(32767))
	cl = bu.Max(cl, bu.Imm(-32768))
	bu.LiveOut(cl)
	blk := bu.MustBuild()

	opt := defaultOpts()
	want := bruteForceBest(blk, opt)
	cuts, err := IterativeContext(context.Background(), blk, opt, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(cuts) != 1 || math.Abs(cuts[0].Merit()-want) > 1e-9 {
		t.Fatalf("iterative merit = %v, brute force %v", cuts, want)
	}
}

// TestMultiCutSymmetryBreaking: with identical disconnected halves, the
// joint search must still terminate quickly and find both (symmetric
// assignments are pruned, not enumerated).
func TestMultiCutSymmetryBreaking(t *testing.T) {
	bu := ir.NewBuilder("sym", 1)
	for k := 0; k < 2; k++ {
		a, b := bu.Input("a"), bu.Input("b")
		m := bu.Mul(a, b)
		s := bu.AddI(m, 1)
		bu.LiveOut(s)
	}
	blk := bu.MustBuild()
	opt := defaultOpts()
	opt.Budget = 200_000 // tight: explodes without symmetry breaking
	cuts, err := MultiCutContext(context.Background(), blk, opt, 2)
	if err != nil {
		t.Fatal(err)
	}
	// The optimum packs both MACs into ONE cut of two independent
	// subgraphs: sw 8 in 2 AFU cycles (merit 6) beats two separate
	// 2-merit cuts.
	tot, nodes := 0.0, 0
	for _, c := range cuts {
		tot += c.Merit()
		nodes += c.Size()
	}
	if math.Abs(tot-6) > 1e-9 {
		t.Errorf("total merit = %v, want 6 (both MACs in one cut)", tot)
	}
	if nodes != 4 {
		t.Errorf("covered %d nodes, want all 4", nodes)
	}
}

// TestSingleCutFrozenEverything returns nil without error.
func TestSingleCutFrozenEverything(t *testing.T) {
	bu := ir.NewBuilder("fz", 1)
	a := bu.Input("a")
	v := bu.Add(a, a)
	bu.LiveOut(v)
	blk := bu.MustBuild()
	excl := graph.NewBitSet(1)
	excl.Set(0)
	cut, err := SingleCutContext(context.Background(), blk, defaultOpts(), excl)
	if err != nil || cut != nil {
		t.Fatalf("cut = %v, err = %v; want nil, nil", cut, err)
	}
}

// The exact single-cut respects live-out outputs in its port counting.
func TestSingleCutLiveOutPorts(t *testing.T) {
	// Chain of three adds, all live-out: any cut of 2+ nodes has 2+
	// outputs; under (4,1) only single nodes fit, which save nothing.
	bu := ir.NewBuilder("lo", 1)
	a, b := bu.Input("a"), bu.Input("b")
	v1 := bu.Add(a, b)
	v2 := bu.Add(v1, b)
	v3 := bu.Mul(v2, b)
	bu.LiveOut(v1, v2, v3)
	blk := bu.MustBuild()
	opt := defaultOpts()
	opt.MaxIn, opt.MaxOut = 4, 1
	cut, err := SingleCutContext(context.Background(), blk, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Only the mul alone saves cycles (3 sw -> 1 afu) with one output.
	if cut == nil || cut.Size() != 1 || !cut.Nodes.Has(2) {
		t.Fatalf("cut = %v, want the lone mul", cut)
	}
	if out := core.MetricsOf(blk, latency.Default(), cut.Nodes).NumOut; out != 1 {
		t.Errorf("outputs = %d, want 1", out)
	}
}
