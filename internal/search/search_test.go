package search_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/latency"
	"repro/internal/search"
)

func buildDiamondBlock(t *testing.T) *ir.Block {
	t.Helper()
	bu := ir.NewBuilder("diamond", 10)
	a, b := bu.Input("a"), bu.Input("b")
	m := bu.Mul(a, b)
	l := bu.Add(m, a)
	r := bu.Sub(m, b)
	bu.LiveOut(bu.Xor(l, r))
	return bu.MustBuild()
}

func buildChain(t *testing.T, n int) *ir.Block {
	t.Helper()
	bu := ir.NewBuilder("chain", 1)
	v := bu.Input("x")
	for i := 0; i < n; i++ {
		v = bu.AddI(v, 1)
	}
	bu.LiveOut(v)
	return bu.MustBuild()
}

// TestGeneratePrefersHighScore: the objective's scorer, not merit, decides
// which candidate the driver selects (ported from the old core driver).
func TestGeneratePrefersHighScore(t *testing.T) {
	bu := ir.NewBuilder("scored", 1)
	a, b := bu.Input("a"), bu.Input("b")
	m := bu.Mul(a, b)
	s := bu.Add(m, b)
	x := bu.Xor(s, a)
	bu.LiveOut(x)
	blk := bu.MustBuild()
	app := &ir.Application{Name: "s", Blocks: []*ir.Block{blk}}

	cfg := core.DefaultConfig()
	cfg.NISE = 1
	// Scorer that inverts preference: pick the SMALLEST candidate.
	smallest := &search.Objective{
		Model: cfg.Model,
		Score: func(bi int, cut *core.Cut, _ []*graph.BitSet) float64 {
			return 1.0 / float64(cut.Size())
		},
	}
	r := &search.Runner{}
	cuts, _, err := r.GenerateContext(context.Background(), app, cfg, smallest, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cuts) != 1 {
		t.Fatalf("got %d cuts", len(cuts))
	}
	// The smallest positive-merit candidate is the single mul.
	if cuts[0].Size() != 1 || !cuts[0].Nodes.Has(0) {
		t.Errorf("scored pick = %v, want the lone mul", cuts[0].Nodes)
	}
	// Merit scoring picks max merit instead.
	cuts2, _, err := r.GenerateContext(context.Background(), app, cfg, search.Merit(cfg.Model), nil)
	if err != nil {
		t.Fatal(err)
	}
	if cuts2[0].Merit() < cuts[0].Merit() {
		t.Error("merit scoring must pick at least the max-merit candidate")
	}
}

// TestGenerateMultiCut (ported): NISE=3 across two hot blocks, cuts never
// reuse nodes and the hotter block is drained first.
func TestGenerateMultiCut(t *testing.T) {
	bu1 := ir.NewBuilder("hot1", 100)
	a, b := bu1.Input("a"), bu1.Input("b")
	v1 := bu1.Add(bu1.Mul(a, b), b)
	v2 := bu1.Xor(bu1.Shl(a, b), v1)
	bu1.LiveOut(v2)
	blk1 := bu1.MustBuild()

	bu2 := ir.NewBuilder("hot2", 50)
	c, d := bu2.Input("c"), bu2.Input("d")
	w := bu2.Sub(bu2.Mul(c, d), c)
	bu2.LiveOut(w)
	blk2 := bu2.MustBuild()

	app := &ir.Application{Name: "app", Blocks: []*ir.Block{blk1, blk2}}
	cfg := core.DefaultConfig()
	cfg.NISE = 3
	cuts, _, err := (&search.Runner{}).GenerateContext(context.Background(), app, cfg, nil, nil)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if len(cuts) == 0 {
		t.Fatal("no cuts found")
	}
	if len(cuts) > 3 {
		t.Fatalf("found %d cuts, budget 3", len(cuts))
	}
	used := map[*ir.Block]*graph.BitSet{}
	for _, c := range cuts {
		m := core.MetricsOf(c.Block, cfg.Model, c.Nodes)
		if !m.Convex() || m.NumIn > cfg.MaxIn || m.NumOut > cfg.MaxOut {
			t.Errorf("infeasible cut %v", c.Nodes)
		}
		if prev, ok := used[c.Block]; ok {
			if prev.Intersects(c.Nodes) {
				t.Fatal("cuts overlap within a block")
			}
			prev.Or(c.Nodes)
		} else {
			used[c.Block] = c.Nodes.Clone()
		}
	}
	if cuts[0].Block != blk1 {
		t.Errorf("first cut from %q, want hot1", cuts[0].Block.Name)
	}
}

// TestGenerateRespectsNISEOne (ported): an AFU budget of exactly one
// yields exactly one cut — not zero, not more.
func TestGenerateRespectsNISEOne(t *testing.T) {
	blk := buildDiamondBlock(t)
	app := &ir.Application{Name: "one", Blocks: []*ir.Block{blk}}
	cfg := core.DefaultConfig()
	cfg.NISE = 1
	cuts, _, err := (&search.Runner{}).GenerateContext(context.Background(), app, cfg, nil, nil)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if len(cuts) != 1 {
		t.Fatalf("got %d cuts, want 1", len(cuts))
	}
}

// TestGenerateClaimCallback (ported): the claim hook runs once per cut
// with the cut already excluded.
func TestGenerateClaimCallback(t *testing.T) {
	blk := buildDiamondBlock(t)
	app := &ir.Application{Name: "cb", Blocks: []*ir.Block{blk}}
	cfg := core.DefaultConfig()
	cfg.NISE = 4
	calls := 0
	_, _, err := (&search.Runner{}).GenerateContext(context.Background(), app, cfg, nil, func(bi int, cut *core.Cut, excluded []*graph.BitSet) {
		calls++
		if bi != 0 {
			t.Errorf("block index = %d, want 0", bi)
		}
		if !cut.Nodes.SubsetOf(excluded[bi]) {
			t.Error("cut nodes must already be excluded when claim runs")
		}
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if calls == 0 {
		t.Fatal("claim callback never invoked")
	}
}

// TestGenerateTerminatesWhenExhausted (ported): a huge NISE stops once
// nothing remains.
func TestGenerateTerminatesWhenExhausted(t *testing.T) {
	blk := buildChain(t, 3)
	app := &ir.Application{Name: "x", Blocks: []*ir.Block{blk}}
	cfg := core.DefaultConfig()
	cfg.NISE = 100
	cuts, _, err := (&search.Runner{}).GenerateContext(context.Background(), app, cfg, nil, nil)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if len(cuts) == 0 || len(cuts) > 3 {
		t.Fatalf("got %d cuts", len(cuts))
	}
}

// TestEngineRegistry: every registered engine runs on a small block behind
// the same interface and finds a feasible positive-merit cut.
func TestEngineRegistry(t *testing.T) {
	model := latency.Default()
	cache := search.NewCostCache()
	lim := &search.Limits{MaxIn: 4, MaxOut: 2, NISE: 2, Budget: 1_000_000}
	obj := search.Merit(model)
	for _, name := range search.Names() {
		eng, err := search.New(name, cache)
		if err != nil {
			t.Fatal(err)
		}
		blk := buildDiamondBlock(t)
		cuts, stats, err := eng.RunContext(context.Background(), blk, obj, lim)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(cuts) == 0 {
			t.Fatalf("%s: no cuts", name)
		}
		if stats.Engine == "" || stats.Duration <= 0 {
			t.Errorf("%s: incomplete stats %+v", name, stats)
		}
		for _, c := range cuts {
			m := core.MetricsOf(blk, model, c.Nodes)
			if !m.Convex() || m.NumIn > lim.MaxIn || m.NumOut > lim.MaxOut || c.Merit() <= 0 {
				t.Errorf("%s: infeasible cut %v", name, c.Nodes)
			}
		}
	}
	if _, err := search.New("nonsense", nil); err == nil {
		t.Fatal("unknown engine name must error")
	}
}

// TestEngineNodeLimit: the exact engines refuse oversized blocks through
// the unified Limits, like the bare baselines did.
func TestEngineNodeLimit(t *testing.T) {
	blk := buildChain(t, 30)
	lim := &search.Limits{MaxIn: 4, MaxOut: 2, NISE: 1, NodeLimit: 25}
	eng := &search.ExactJoint{}
	_, _, err := eng.RunContext(context.Background(), blk, search.Merit(latency.Default()), lim)
	if !errors.Is(err, exact.ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

// TestEngineObjectiveGuards: per-block engines reject objectives they
// cannot honor instead of silently ignoring them.
func TestEngineObjectiveGuards(t *testing.T) {
	blk := buildDiamondBlock(t)
	app := &ir.Application{Name: "g", Blocks: []*ir.Block{blk}}
	model := latency.Default()
	lim := &search.Limits{MaxIn: 4, MaxOut: 2, NISE: 1}

	// App-scoped objectives only work through Runner.GenerateContext.
	appObj := search.EnergyWeighted(app, model)
	if !appObj.AppScoped() {
		t.Fatal("EnergyWeighted must be app-scoped")
	}
	if _, _, err := (&search.KL{}).RunContext(context.Background(), blk, appObj, lim); err == nil {
		t.Error("KL.Run must reject app-scoped objectives")
	}
	// Merit-internal engines reject custom scorers.
	scored := search.AreaWeighted(model, 1.0)
	if _, _, err := (&search.Genetic{Seed: 1}).RunContext(context.Background(), blk, scored, lim); err == nil {
		t.Error("Genetic.Run must reject scored objectives")
	}
	if _, _, err := (&search.ExactIterative{}).RunContext(context.Background(), blk, scored, lim); err == nil {
		t.Error("ExactIterative.Run must reject scored objectives")
	}
	// But the KL engine honors block-local scorers (a tiny penalty only
	// breaks ties, so candidates survive).
	tieBreak := search.AreaWeighted(model, 1e-9)
	if cuts, _, err := (&search.KL{}).RunContext(context.Background(), blk, tieBreak, lim); err != nil || len(cuts) == 0 {
		t.Errorf("KL.Run with block-local scorer: cuts=%d err=%v", len(cuts), err)
	}
}

// TestCostCacheMemoizes: repeated costing of the same cut is served from
// the cache and agrees with the direct computation.
func TestCostCacheMemoizes(t *testing.T) {
	blk := buildDiamondBlock(t)
	model := latency.Default()
	cut := graph.NewBitSet(blk.N())
	cut.Set(0)
	cut.Set(1)

	cache := search.NewCostCache()
	m1 := cache.Metrics(blk, model, cut)
	m2 := cache.Metrics(blk, model, cut)
	if m1 != m2 {
		t.Fatalf("cache not stable: %+v vs %+v", m1, m2)
	}
	if want := core.MetricsOf(blk, model, cut); m1 != want {
		t.Fatalf("cached metrics %+v != direct %+v", m1, want)
	}
	hits, misses := cache.Stats()
	if hits != 1 || misses != 1 {
		t.Errorf("hits/misses = %d/%d, want 1/1", hits, misses)
	}
	// A different cut is a miss, not a collision.
	other := graph.NewBitSet(blk.N())
	other.Set(2)
	if mo := cache.Metrics(blk, model, other); mo == m1 {
		t.Error("distinct cuts must not collide")
	}
}

// TestObjectiveVariants: the area- and energy-weighted objectives change
// the selection the way their formulas promise.
func TestObjectiveVariants(t *testing.T) {
	blk := buildDiamondBlock(t)
	app := &ir.Application{Name: "obj", Blocks: []*ir.Block{blk}}
	model := latency.Default()
	cfg := core.DefaultConfig()
	cfg.NISE = 1

	r := &search.Runner{}
	merit, _, err := r.GenerateContext(context.Background(), app, cfg, search.Merit(model), nil)
	if err != nil || len(merit) != 1 {
		t.Fatalf("merit generate: %v (%d cuts)", err, len(merit))
	}
	// A prohibitive gate penalty forces a smaller (cheaper) cut.
	area, _, err := r.GenerateContext(context.Background(), app, cfg, search.AreaWeighted(model, 1.0), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(area) == 1 && area[0].Size() > merit[0].Size() {
		t.Errorf("area-weighted cut (%d nodes) larger than merit cut (%d)", area[0].Size(), merit[0].Size())
	}
	// Energy saving of the merit cut is positive on this block, so the
	// energy objective must find something too.
	energy, _, err := r.GenerateContext(context.Background(), app, cfg, search.EnergyWeighted(app, model), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(energy) == 0 {
		t.Error("energy-weighted objective rejected every candidate")
	}
}
