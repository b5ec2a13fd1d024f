package eval

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/latency"
	"repro/internal/reuse"
)

// buildApp: one hot MAC block (freq 100) + one cold block (freq 1).
func buildApp(t *testing.T) (*ir.Application, *core.Cut) {
	t.Helper()
	bu := ir.NewBuilder("hot", 100)
	a, b, acc := bu.Input("a"), bu.Input("b"), bu.Input("acc")
	m := bu.Mul(a, b)
	s := bu.Add(m, acc)
	bu.LiveOut(s)
	hot := bu.MustBuild()

	bu2 := ir.NewBuilder("cold", 1)
	x := bu2.Input("x")
	bu2.LiveOut(bu2.Neg(x))
	cold := bu2.MustBuild()

	app := &ir.Application{Name: "app", Blocks: []*ir.Block{hot, cold}}
	cut := graph.NewBitSet(2)
	cut.Set(0)
	cut.Set(1)
	cm := core.MetricsOf(hot, latency.Default(), cut)
	return app, &core.Cut{Block: hot, Nodes: cut, NumIn: cm.NumIn, NumOut: cm.NumOut, SWLat: cm.SWLat, HWLat: cm.HWLat}
}

func TestEvaluateSpeedup(t *testing.T) {
	app, cut := buildApp(t)
	model := latency.Default()
	sels := []Selection{{
		Cut:       cut,
		Instances: []reuse.Instance{{BlockIdx: 0, Nodes: cut.Nodes}},
	}}
	rep, err := Evaluate(app, model, sels)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	// SW: hot = (3+1)*100 = 400, cold = 1. Total 401.
	if math.Abs(rep.SWCycles-401) > 1e-9 {
		t.Errorf("SWCycles = %v, want 401", rep.SWCycles)
	}
	// Merit = 4 sw cycles - 2 AFU cycles = 2 per execution, saved 200.
	wantAccel := 401 - 200.0
	if math.Abs(rep.AccelCycles-wantAccel) > 1e-9 {
		t.Errorf("AccelCycles = %v, want %v", rep.AccelCycles, wantAccel)
	}
	if math.Abs(rep.Speedup-401/wantAccel) > 1e-9 {
		t.Errorf("Speedup = %v, want %v", rep.Speedup, 401/wantAccel)
	}
	// Coverage: 400/401 of dynamic cycles covered.
	if math.Abs(rep.Coverage-400.0/401) > 1e-9 {
		t.Errorf("Coverage = %v", rep.Coverage)
	}
	// Static: 3 instructions -> 2 (MAC replaced by one ISE).
	if rep.StaticBefore != 3 || rep.StaticAfter != 2 {
		t.Errorf("static %d -> %d, want 3 -> 2", rep.StaticBefore, rep.StaticAfter)
	}
	if rep.EnergyAfter >= rep.EnergyBefore {
		t.Errorf("energy should drop: %v -> %v", rep.EnergyBefore, rep.EnergyAfter)
	}
}

func TestEvaluateNoSelections(t *testing.T) {
	app, _ := buildApp(t)
	rep, err := Evaluate(app, latency.Default(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Speedup != 1 || rep.Coverage != 0 {
		t.Errorf("empty selection: speedup %v coverage %v, want 1 and 0", rep.Speedup, rep.Coverage)
	}
	if rep.StaticBefore != rep.StaticAfter {
		t.Error("static size must be unchanged")
	}
	if rep.EnergyBefore != rep.EnergyAfter {
		t.Error("energy must be unchanged")
	}
}

func TestEvaluateRejectsOverlap(t *testing.T) {
	app, cut := buildApp(t)
	inst := reuse.Instance{BlockIdx: 0, Nodes: cut.Nodes}
	sels := []Selection{
		{Cut: cut, Instances: []reuse.Instance{inst, inst}},
	}
	if _, err := Evaluate(app, latency.Default(), sels); err == nil {
		t.Fatal("overlapping instances must be rejected")
	}
}

func TestEvaluateRejectsNonConvex(t *testing.T) {
	bu := ir.NewBuilder("nc", 1)
	x := bu.Input("x")
	n0 := bu.Add(x, x)
	n1 := bu.Neg(n0)
	n2 := bu.Xor(n1, n0)
	bu.LiveOut(n2)
	blk := bu.MustBuild()
	app := &ir.Application{Name: "a", Blocks: []*ir.Block{blk}}
	bad := graph.NewBitSet(3)
	bad.Set(0)
	bad.Set(2) // path through n1 leaves the cut
	sels := []Selection{{
		Cut:       &core.Cut{Block: blk, Nodes: bad},
		Instances: []reuse.Instance{{BlockIdx: 0, Nodes: bad}},
	}}
	if _, err := Evaluate(app, latency.Default(), sels); err == nil {
		t.Fatal("non-convex instance must be rejected")
	}
}

func TestEvaluateBadBlockIndex(t *testing.T) {
	app, cut := buildApp(t)
	sels := []Selection{{
		Cut:       cut,
		Instances: []reuse.Instance{{BlockIdx: 9, Nodes: cut.Nodes}},
	}}
	if _, err := Evaluate(app, latency.Default(), sels); err == nil {
		t.Fatal("bad block index must be rejected")
	}
}

func TestFilterSchedulableDropsMutualDependency(t *testing.T) {
	// Block: a1 -> b1, b2 -> a2, with A = {a1, a2} and B = {b1, b2}
	// both convex but mutually dependent after contraction.
	bu := ir.NewBuilder("cyc", 1)
	x := bu.Input("x")
	a1 := bu.Add(x, x)  // 0 in A
	b1 := bu.Neg(a1)    // 1 in B
	b2 := bu.Xor(x, x)  // 2 in B
	a2 := bu.Sub(b2, x) // 3 in A
	o := bu.Or(b1, a2)  // 4 keeps everything alive
	bu.LiveOut(o)
	blk := bu.MustBuild()
	app := &ir.Application{Name: "a", Blocks: []*ir.Block{blk}}

	setA := graph.NewBitSet(5)
	setA.Set(0)
	setA.Set(3)
	setB := graph.NewBitSet(5)
	setB.Set(1)
	setB.Set(2)
	if !blk.DAG().IsConvex(setA) || !blk.DAG().IsConvex(setB) {
		t.Fatal("test setup: both sets should be convex")
	}
	sels := []Selection{
		{Cut: &core.Cut{Block: blk, Nodes: setA}, Instances: []reuse.Instance{{BlockIdx: 0, Nodes: setA}}},
		{Cut: &core.Cut{Block: blk, Nodes: setB}, Instances: []reuse.Instance{{BlockIdx: 0, Nodes: setB}}},
	}
	kept := FilterSchedulable(app, sels)
	total := 0
	for _, s := range kept {
		total += len(s.Instances)
	}
	if total != 1 {
		t.Fatalf("kept %d instances, want 1 (mutual dependency dropped)", total)
	}
}

func TestFilterSchedulableKeepsIndependent(t *testing.T) {
	app, cut := buildApp(t)
	sels := []Selection{{
		Cut:       cut,
		Instances: []reuse.Instance{{BlockIdx: 0, Nodes: cut.Nodes}},
	}}
	kept := FilterSchedulable(app, sels)
	if len(kept) != 1 || len(kept[0].Instances) != 1 {
		t.Fatal("independent instance must be kept")
	}
}

func TestSpeedupOfCuts(t *testing.T) {
	app, cut := buildApp(t)
	rep, err := SpeedupOfCuts(app, latency.Default(), []*core.Cut{cut})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Speedup <= 1 {
		t.Errorf("speedup = %v, want > 1", rep.Speedup)
	}
}

func TestRelativeError(t *testing.T) {
	if RelativeError(1, 1) != 0 {
		t.Error("identical values must have zero error")
	}
	if e := RelativeError(1.0, 1.1); math.Abs(e-0.1/1.1) > 1e-12 {
		t.Errorf("RelativeError(1,1.1) = %v", e)
	}
	if RelativeError(0, 0) != 0 {
		t.Error("0,0 must be 0")
	}
}
