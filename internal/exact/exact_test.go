package exact

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/latency"
)

func defaultOpts() Options {
	return Options{MaxIn: 4, MaxOut: 2, Model: latency.Default()}
}

// randKernelBlock mirrors the generator used in the core tests.
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
			v = bu.Sub(a, b)
		case 4:
			v = bu.Load(a)
		default:
			v = bu.Add(a, b)
		}
		vals = append(vals, v)
	}
	bu.LiveOut(vals[len(vals)-1])
	return bu.MustBuild()
}

// bruteForceBest enumerates every subset; the trusted reference.
func bruteForceBest(blk *ir.Block, opt Options) float64 {
	n := blk.N()
	best := 0.0
	for mask := 1; mask < 1<<uint(n); mask++ {
		cut := graph.NewBitSet(n)
		skip := false
		for v := 0; v < n; v++ {
			if mask&(1<<uint(v)) != 0 {
				if blk.ForbiddenInCut(v) || !opt.Model.HWImplementable(blk.Nodes[v].Op) {
					skip = true
					break
				}
				cut.Set(v)
			}
		}
		if skip {
			continue
		}
		m := core.MetricsOf(blk, opt.Model, cut)
		if !m.Convex() || m.NumIn > opt.MaxIn || m.NumOut > opt.MaxOut {
			continue
		}
		if merit := m.Merit(); merit > best {
			best = merit
		}
	}
	return best
}

func TestSingleCutMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	opt := defaultOpts()
	for trial := 0; trial < 60; trial++ {
		blk := randKernelBlock(rng, 3+rng.Intn(12))
		want := bruteForceBest(blk, opt)
		cut, err := SingleCutContext(context.Background(), blk, opt, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got := 0.0
		if cut != nil {
			got = cut.Merit()
			// Returned cut must itself be feasible.
			m := core.MetricsOf(blk, opt.Model, cut.Nodes)
			if !m.Convex() || m.NumIn > opt.MaxIn || m.NumOut > opt.MaxOut {
				t.Fatalf("trial %d: infeasible cut returned", trial)
			}
		}
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: SingleCut merit %v, brute force %v", trial, got, want)
		}
	}
}

func TestSingleCutVariedIOConstraints(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 20; trial++ {
		blk := randKernelBlock(rng, 3+rng.Intn(10))
		for _, io := range [][2]int{{2, 1}, {3, 1}, {4, 2}, {6, 3}} {
			opt := defaultOpts()
			opt.MaxIn, opt.MaxOut = io[0], io[1]
			want := bruteForceBest(blk, opt)
			cut, err := SingleCutContext(context.Background(), blk, opt, nil)
			if err != nil {
				t.Fatal(err)
			}
			got := 0.0
			if cut != nil {
				got = cut.Merit()
			}
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("trial %d io %v: got %v, want %v", trial, io, got, want)
			}
		}
	}
}

func TestSingleCutExcluded(t *testing.T) {
	bu := ir.NewBuilder("mac", 1)
	a, b, acc := bu.Input("a"), bu.Input("b"), bu.Input("acc")
	m := bu.Mul(a, b)
	s := bu.Add(m, acc)
	bu.LiveOut(s)
	blk := bu.MustBuild()

	opt := defaultOpts()
	full, err := SingleCutContext(context.Background(), blk, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if full == nil || !full.Nodes.Has(0) {
		t.Fatalf("unrestricted cut = %v, must include the mul", full)
	}
	excl := graph.NewBitSet(2)
	excl.Set(0) // exclude the mul: the lone add saves nothing
	cut, err := SingleCutContext(context.Background(), blk, opt, excl)
	if err != nil {
		t.Fatal(err)
	}
	if cut != nil {
		t.Fatalf("cut = %v, want none (add alone has zero merit)", cut.Nodes)
	}
}

func TestSingleCutNodeLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	blk := randKernelBlock(rng, 30)
	opt := defaultOpts()
	opt.NodeLimit = 25
	_, err := SingleCutContext(context.Background(), blk, opt, nil)
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestSingleCutBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	blk := randKernelBlock(rng, 40)
	opt := defaultOpts()
	opt.Budget = 50
	_, err := SingleCutContext(context.Background(), blk, opt, nil)
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
}

func TestIterativeDisjointCuts(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	blk := randKernelBlock(rng, 14)
	opt := defaultOpts()
	cuts, err := IterativeContext(context.Background(), blk, opt, 4)
	if err != nil {
		t.Fatal(err)
	}
	seen := graph.NewBitSet(blk.N())
	for _, c := range cuts {
		if seen.Intersects(c.Nodes) {
			t.Fatal("iterative cuts overlap")
		}
		seen.Or(c.Nodes)
		if c.Merit() <= 0 {
			t.Fatal("non-positive merit cut returned")
		}
	}
	// First cut must be the single-cut optimum.
	want := bruteForceBest(blk, opt)
	if len(cuts) == 0 || math.Abs(cuts[0].Merit()-want) > 1e-9 {
		t.Fatalf("first iterative cut merit wrong: %v, want %v", cuts, want)
	}
}

// bruteForceMulti enumerates assignments of nodes to {S, cut1..cutK} for
// tiny blocks; trusted reference for MultiCut.
func bruteForceMulti(blk *ir.Block, opt Options, k int) float64 {
	n := blk.N()
	labels := make([]int, n) // 0 = software, 1..k = cuts
	best := 0.0
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			total := 0.0
			for c := 1; c <= k; c++ {
				cut := graph.NewBitSet(n)
				for v := 0; v < n; v++ {
					if labels[v] == c {
						cut.Set(v)
					}
				}
				if cut.Empty() {
					continue
				}
				m := core.MetricsOf(blk, opt.Model, cut)
				if !m.Convex() || m.NumIn > opt.MaxIn || m.NumOut > opt.MaxOut {
					return
				}
				total += m.Merit()
			}
			if total > best {
				best = total
			}
			return
		}
		limit := k
		if blk.ForbiddenInCut(i) || !opt.Model.HWImplementable(blk.Nodes[i].Op) {
			limit = 0
		}
		for c := 0; c <= limit; c++ {
			labels[i] = c
			rec(i + 1)
		}
		labels[i] = 0
	}
	rec(0)
	return best
}

func TestMultiCutMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	opt := defaultOpts()
	for trial := 0; trial < 15; trial++ {
		blk := randKernelBlock(rng, 3+rng.Intn(6))
		want := bruteForceMulti(blk, opt, 2)
		cuts, err := MultiCutContext(context.Background(), blk, opt, 2)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got := 0.0
		seen := graph.NewBitSet(blk.N())
		for _, c := range cuts {
			got += c.Merit()
			if seen.Intersects(c.Nodes) {
				t.Fatal("multi cuts overlap")
			}
			seen.Or(c.Nodes)
			m := core.MetricsOf(blk, opt.Model, c.Nodes)
			if !m.Convex() || m.NumIn > opt.MaxIn || m.NumOut > opt.MaxOut {
				t.Fatalf("trial %d: infeasible cut", trial)
			}
		}
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: MultiCut total %v, brute force %v", trial, got, want)
		}
	}
}

// MultiCut with a budget of several cuts must beat or match iterative
// single cuts (it is jointly optimal).
func TestMultiCutAtLeastIterative(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	opt := defaultOpts()
	for trial := 0; trial < 10; trial++ {
		blk := randKernelBlock(rng, 4+rng.Intn(6))
		multi, err := MultiCutContext(context.Background(), blk, opt, 2)
		if err != nil {
			t.Fatal(err)
		}
		iter, err := IterativeContext(context.Background(), blk, opt, 2)
		if err != nil {
			t.Fatal(err)
		}
		mTot, iTot := 0.0, 0.0
		for _, c := range multi {
			mTot += c.Merit()
		}
		for _, c := range iter {
			iTot += c.Merit()
		}
		if mTot < iTot-1e-9 {
			t.Fatalf("trial %d: multi %v < iterative %v", trial, mTot, iTot)
		}
	}
}

func TestOptionsValidation(t *testing.T) {
	blk := randKernelBlock(rand.New(rand.NewSource(1)), 4)
	if _, err := SingleCutContext(context.Background(), blk, Options{MaxIn: 4, MaxOut: 2}, nil); err == nil {
		t.Error("nil model should be rejected")
	}
	if _, err := SingleCutContext(context.Background(), blk, Options{MaxIn: 0, MaxOut: 2, Model: latency.Default()}, nil); err == nil {
		t.Error("zero MaxIn should be rejected")
	}
	if _, err := IterativeContext(context.Background(), blk, defaultOpts(), 0); err == nil {
		t.Error("nise 0 should be rejected")
	}
	if _, err := MultiCutContext(context.Background(), blk, defaultOpts(), 0); err == nil {
		t.Error("nise 0 should be rejected")
	}
}

func BenchmarkSingleCut20(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	blk := randKernelBlock(rng, 20)
	opt := defaultOpts()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SingleCutContext(context.Background(), blk, opt, nil); err != nil {
			b.Fatal(err)
		}
	}
}
