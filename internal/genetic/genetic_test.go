package genetic

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/latency"
)

func defaultOpts() Options {
	return Options{MaxIn: 4, MaxOut: 2, Model: latency.Default(), Seed: 1}
}

func randKernelBlock(rng *rand.Rand, n int) *ir.Block {
	bu := ir.NewBuilder("rand", 1)
	ins := bu.Inputs(2 + rng.Intn(3))
	vals := append([]ir.Value{}, ins...)
	for i := 0; i < n; i++ {
		a := vals[rng.Intn(len(vals))]
		b := vals[rng.Intn(len(vals))]
		var v ir.Value
		switch rng.Intn(10) {
		case 0:
			v = bu.Mul(a, b)
		case 1:
			v = bu.Xor(a, b)
		case 2:
			v = bu.Shl(a, b)
		case 3:
			v = bu.Load(a)
		default:
			v = bu.Add(a, b)
		}
		vals = append(vals, v)
	}
	bu.LiveOut(vals[len(vals)-1])
	return bu.MustBuild()
}

func assertFeasibleCut(t *testing.T, blk *ir.Block, cut *core.Cut, opt Options) {
	t.Helper()
	m := core.MetricsOf(blk, opt.Model, cut.Nodes)
	if !m.Convex() {
		t.Fatalf("GA returned non-convex cut %v", cut.Nodes)
	}
	if m.NumIn > opt.MaxIn || m.NumOut > opt.MaxOut {
		t.Fatalf("GA cut io (%d,%d) exceeds (%d,%d)", m.NumIn, m.NumOut, opt.MaxIn, opt.MaxOut)
	}
	cut.Nodes.ForEach(func(v int) bool {
		if blk.ForbiddenInCut(v) {
			t.Fatalf("GA cut contains forbidden node %d", v)
		}
		return true
	})
}

func TestGASingleCutFeasibleAndGood(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	opt := defaultOpts()
	totalRatio, trials := 0.0, 0
	for trial := 0; trial < 12; trial++ {
		blk := randKernelBlock(rng, 5+rng.Intn(10))
		optimal, err := exact.SingleCutContext(context.Background(), blk, exact.Options{
			MaxIn: opt.MaxIn, MaxOut: opt.MaxOut, Model: opt.Model,
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := SingleCut(blk, opt, nil)
		if err != nil {
			t.Fatal(err)
		}
		if optimal == nil {
			if got != nil {
				t.Fatalf("trial %d: GA found a cut where none is feasible", trial)
			}
			continue
		}
		if got == nil {
			t.Fatalf("trial %d: GA found nothing, optimum %v", trial, optimal.Merit())
		}
		assertFeasibleCut(t, blk, got, opt)
		ratio := got.Merit() / optimal.Merit()
		if ratio > 1+1e-9 {
			t.Fatalf("trial %d: GA merit %v above optimum %v", trial, got.Merit(), optimal.Merit())
		}
		totalRatio += ratio
		trials++
	}
	if trials > 0 && totalRatio/float64(trials) < 0.9 {
		t.Errorf("GA average quality %.3f of optimal, want >= 0.9 (paper: GA matches optimum on small blocks)", totalRatio/float64(trials))
	}
}

func TestGADeterministicForSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	blk := randKernelBlock(rng, 12)
	opt := defaultOpts()
	c1, err := SingleCut(blk, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := SingleCut(blk, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	switch {
	case c1 == nil && c2 == nil:
	case c1 == nil || c2 == nil:
		t.Fatal("same seed, different nil-ness")
	default:
		if !c1.Nodes.Equal(c2.Nodes) {
			t.Fatalf("same seed, different cuts: %v vs %v", c1.Nodes, c2.Nodes)
		}
	}
}

func TestGASeedSensitivity(t *testing.T) {
	// The paper criticizes the GA for being stochastic: different seeds
	// may give different answers. Verify at least that all seeds give
	// feasible answers.
	rng := rand.New(rand.NewSource(10))
	blk := randKernelBlock(rng, 14)
	opt := defaultOpts()
	for seed := int64(1); seed <= 5; seed++ {
		opt.Seed = seed
		cut, err := SingleCut(blk, opt, nil)
		if err != nil {
			t.Fatal(err)
		}
		if cut != nil {
			assertFeasibleCut(t, blk, cut, opt)
		}
	}
}

func TestGAExcludedNodes(t *testing.T) {
	bu := ir.NewBuilder("mac", 1)
	a, b, acc := bu.Input("a"), bu.Input("b"), bu.Input("acc")
	m := bu.Mul(a, b)
	s := bu.Add(m, acc)
	bu.LiveOut(s)
	blk := bu.MustBuild()
	opt := defaultOpts()
	full, err := SingleCut(blk, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if full == nil || !full.Nodes.Has(0) {
		t.Fatalf("unrestricted GA cut = %v, must include the mul", full)
	}
	excl := graph.NewBitSet(2)
	excl.Set(0) // exclude the mul: the lone add saves nothing
	cut, err := SingleCut(blk, opt, excl)
	if err != nil {
		t.Fatal(err)
	}
	if cut != nil {
		t.Fatalf("cut = %v, must be nil (excluded mul, add has zero merit)", cut.Nodes)
	}
}

func TestGAAllFrozen(t *testing.T) {
	bu := ir.NewBuilder("allmem", 1)
	a := bu.Input("a")
	bu.LiveOut(bu.Load(a))
	blk := bu.MustBuild()
	cut, err := SingleCut(blk, defaultOpts(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if cut != nil {
		t.Fatal("expected nil cut on all-frozen block")
	}
}

func TestGAIterativeDisjoint(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	blk := randKernelBlock(rng, 16)
	opt := defaultOpts()
	cuts, err := Iterative(blk, opt, 3)
	if err != nil {
		t.Fatal(err)
	}
	seen := graph.NewBitSet(blk.N())
	for _, c := range cuts {
		assertFeasibleCut(t, blk, c, opt)
		if seen.Intersects(c.Nodes) {
			t.Fatal("iterative GA cuts overlap")
		}
		seen.Or(c.Nodes)
		if c.Merit() <= 0 {
			t.Fatal("non-positive merit")
		}
	}
}

func TestGAOptionsValidation(t *testing.T) {
	blk := randKernelBlock(rand.New(rand.NewSource(1)), 4)
	if _, err := SingleCut(blk, Options{MaxIn: 4, MaxOut: 2}, nil); err == nil {
		t.Error("nil model should be rejected")
	}
	if _, err := SingleCut(blk, Options{MaxIn: 0, MaxOut: 1, Model: latency.Default()}, nil); err == nil {
		t.Error("MaxIn 0 should be rejected")
	}
	if _, err := Iterative(blk, defaultOpts(), 0); err == nil {
		t.Error("nise 0 should be rejected")
	}
}

// On a clean MAC the GA must find the exact optimum (it is tiny).
func TestGAFindsMACOptimum(t *testing.T) {
	bu := ir.NewBuilder("mac", 1)
	a, b, acc := bu.Input("a"), bu.Input("b"), bu.Input("acc")
	s := bu.Add(bu.Mul(a, b), acc)
	bu.LiveOut(s)
	blk := bu.MustBuild()
	cut, err := SingleCut(blk, defaultOpts(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if cut == nil {
		t.Fatal("GA found no cut")
	}
	if math.Abs(cut.Merit()-2) > 1e-9 {
		t.Errorf("merit = %v, want 2 (mul alone or the full MAC)", cut.Merit())
	}
}

func BenchmarkGASingleCut30(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	blk := randKernelBlock(rng, 30)
	opt := defaultOpts()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SingleCut(blk, opt, nil); err != nil {
			b.Fatal(err)
		}
	}
}
