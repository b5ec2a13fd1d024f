package exact

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/kernels"
	"repro/internal/latency"
	"repro/internal/obs"
)

// jointGolden pins one joint search: the block, its (MaxIn, MaxOut, NISE)
// point, the winning cut node sets in result order, and the sequential
// search-tree tallies. Any change to the DFS order, the symmetry breaking,
// the prune rules or enter()'s accounting moves at least one of them.
type jointGolden struct {
	block                    string
	maxIn, maxOut, nise      int
	cuts                     string
	explored, prunes, raises int64
}

// jointGoldens covers every Figure 4 kernel block of at most 25 nodes
// (the paper's joint-search limit) at four constraint points. The cut
// column was recorded from the BitSet-state search the word-state kernel
// replaced; the tallies are those of the slot-wise bound, pre-searches
// included, which explores fewer nodes to the same cuts.
var jointGoldens = []jointGolden{
	{"conven00_enc", 4, 2, 4, "{0, 1, 2, 3, 4, 5}", 54, 26, 1},
	{"conven00_enc", 4, 2, 2, "{0, 1, 2, 3, 4, 5}", 54, 26, 1},
	{"conven00_enc", 2, 1, 4, "{2, 3, 4, 5} {0, 1}", 41, 18, 1},
	{"conven00_enc", 3, 1, 4, "{2, 3, 4, 5} {0, 1}", 41, 18, 1},
	{"conven00_glue", 4, 2, 4, "{3, 4} {0}", 24, 8, 1},
	{"conven00_glue", 4, 2, 2, "{3, 4} {0}", 24, 8, 1},
	{"conven00_glue", 2, 1, 4, "", 9, 4, 0},
	{"conven00_glue", 3, 1, 4, "", 9, 4, 0},
	{"conven00_setup", 4, 2, 4, "{0, 1}", 10, 5, 1},
	{"conven00_setup", 4, 2, 2, "{0, 1}", 10, 5, 1},
	{"conven00_setup", 2, 1, 4, "", 3, 3, 0},
	{"conven00_setup", 3, 1, 4, "", 3, 3, 0},
	{"fbital00_alloc", 4, 2, 4, "{7, 12, 13, 14, 15, 16, 17, 18, 19} {0, 1, 2, 3, 4, 5, 6, 8, 9, 10, 11}", 1163, 558, 3},
	{"fbital00_alloc", 4, 2, 2, "{7, 12, 13, 14, 15, 16, 17, 18, 19} {0, 1, 2, 3, 4, 5, 6, 8, 9, 10, 11}", 666, 224, 4},
	{"fbital00_alloc", 2, 1, 4, "{16, 17, 18, 19} {10, 11, 12, 13, 14, 15} {9} {1, 2, 3, 4, 5, 6}", 3104, 1486, 2},
	{"fbital00_alloc", 3, 1, 4, "{16, 17, 18, 19} {7, 10, 11, 12, 13, 14, 15} {8, 9} {0, 1, 2, 3, 4, 5, 6}", 1142, 527, 3},
	{"fbital00_glue", 4, 2, 4, "{3, 4} {0}", 24, 8, 1},
	{"fbital00_glue", 4, 2, 2, "{3, 4} {0}", 24, 8, 1},
	{"fbital00_glue", 2, 1, 4, "", 9, 4, 0},
	{"fbital00_glue", 3, 1, 4, "", 9, 4, 0},
	{"fbital00_setup", 4, 2, 4, "{0, 1}", 10, 5, 1},
	{"fbital00_setup", 4, 2, 2, "{0, 1}", 10, 5, 1},
	{"fbital00_setup", 2, 1, 4, "", 3, 3, 0},
	{"fbital00_setup", 3, 1, 4, "", 3, 3, 0},
	{"viterb00_acs", 4, 2, 4, "{16, 17, 18, 19, 20, 21} {10, 11, 12, 13} {6, 7, 8, 9} {0, 1, 2, 3, 4, 5}", 308636, 51093, 6},
	{"viterb00_acs", 4, 2, 2, "{16, 17, 18, 19, 20, 21} {0, 1, 2, 3, 4, 5}", 5213, 397, 5},
	{"viterb00_acs", 2, 1, 4, "{19, 21} {18, 20} {3, 4, 5} {0, 1, 2}", 2519, 337, 4},
	{"viterb00_acs", 3, 1, 4, "{17, 19, 21} {13, 18, 20} {3, 4, 5} {0, 1, 2}", 1118, 320, 4},
	{"viterb00_glue", 4, 2, 4, "{3, 4} {0}", 24, 8, 1},
	{"viterb00_glue", 4, 2, 2, "{3, 4} {0}", 24, 8, 1},
	{"viterb00_glue", 2, 1, 4, "", 9, 4, 0},
	{"viterb00_glue", 3, 1, 4, "", 9, 4, 0},
	{"viterb00_setup", 4, 2, 4, "{0, 1}", 10, 5, 1},
	{"viterb00_setup", 4, 2, 2, "{0, 1}", 10, 5, 1},
	{"viterb00_setup", 2, 1, 4, "", 3, 3, 0},
	{"viterb00_setup", 3, 1, 4, "", 3, 3, 0},
	{"autcor00_mac", 4, 2, 4, "{13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24} {10, 12} {6, 8} {2, 4}", 1179, 224, 4},
	{"autcor00_mac", 4, 2, 2, "{13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24} {10, 12}", 1064, 188, 2},
	{"autcor00_mac", 2, 1, 4, "{16, 17, 18, 19, 20, 21, 22, 23, 24} {14} {12} {10}", 421, 66, 3},
	{"autcor00_mac", 3, 1, 4, "{16, 17, 18, 19, 20, 21, 22, 23, 24} {14, 15} {12, 13} {10, 11}", 490, 74, 1},
	{"autcor00_glue", 4, 2, 4, "{3, 4} {0}", 24, 8, 1},
	{"autcor00_glue", 4, 2, 2, "{3, 4} {0}", 24, 8, 1},
	{"autcor00_glue", 2, 1, 4, "", 9, 4, 0},
	{"autcor00_glue", 3, 1, 4, "", 9, 4, 0},
	{"autcor00_setup", 4, 2, 4, "{0, 1}", 10, 5, 1},
	{"autcor00_setup", 4, 2, 2, "{0, 1}", 10, 5, 1},
	{"autcor00_setup", 2, 1, 4, "", 3, 3, 0},
	{"autcor00_setup", 3, 1, 4, "", 3, 3, 0},
	{"adpcm_decoder_glue", 4, 2, 4, "{3, 4} {0}", 24, 8, 1},
	{"adpcm_decoder_glue", 4, 2, 2, "{3, 4} {0}", 24, 8, 1},
	{"adpcm_decoder_glue", 2, 1, 4, "", 9, 4, 0},
	{"adpcm_decoder_glue", 3, 1, 4, "", 9, 4, 0},
	{"adpcm_decoder_setup", 4, 2, 4, "{0, 1}", 10, 5, 1},
	{"adpcm_decoder_setup", 4, 2, 2, "{0, 1}", 10, 5, 1},
	{"adpcm_decoder_setup", 2, 1, 4, "", 3, 3, 0},
	{"adpcm_decoder_setup", 3, 1, 4, "", 3, 3, 0},
	{"adpcm_decoder_unpack", 4, 2, 4, "{1, 2, 3, 4} {0}", 39, 18, 1},
	{"adpcm_decoder_unpack", 4, 2, 2, "{1, 2, 3, 4} {0}", 39, 18, 1},
	{"adpcm_decoder_unpack", 2, 1, 4, "{3, 4} {1, 2} {0}", 37, 17, 1},
	{"adpcm_decoder_unpack", 3, 1, 4, "{3, 4} {1, 2} {0}", 37, 17, 1},
	{"adpcm_coder_glue", 4, 2, 4, "{3, 4} {0}", 24, 8, 1},
	{"adpcm_coder_glue", 4, 2, 2, "{3, 4} {0}", 24, 8, 1},
	{"adpcm_coder_glue", 2, 1, 4, "", 9, 4, 0},
	{"adpcm_coder_glue", 3, 1, 4, "", 9, 4, 0},
	{"adpcm_coder_setup", 4, 2, 4, "{0, 1}", 10, 5, 1},
	{"adpcm_coder_setup", 4, 2, 2, "{0, 1}", 10, 5, 1},
	{"adpcm_coder_setup", 2, 1, 4, "", 3, 3, 0},
	{"adpcm_coder_setup", 3, 1, 4, "", 3, 3, 0},
	{"fft00_glue", 4, 2, 4, "{3, 4} {0}", 24, 8, 1},
	{"fft00_glue", 4, 2, 2, "{3, 4} {0}", 24, 8, 1},
	{"fft00_glue", 2, 1, 4, "", 9, 4, 0},
	{"fft00_glue", 3, 1, 4, "", 9, 4, 0},
	{"fft00_setup", 4, 2, 4, "{0, 1}", 10, 5, 1},
	{"fft00_setup", 4, 2, 2, "{0, 1}", 10, 5, 1},
	{"fft00_setup", 2, 1, 4, "", 3, 3, 0},
	{"fft00_setup", 3, 1, 4, "", 3, 3, 0},
}

func kernelBlocksByName() map[string]*ir.Block {
	blocks := map[string]*ir.Block{}
	for _, spec := range kernels.All() {
		for _, blk := range spec.App.Blocks {
			blocks[blk.Name] = blk
		}
	}
	return blocks
}

// TestJointSearchGolden pins the joint search's cuts and explored-tree
// tallies on the Figure 4 kernels, and checks that the subtree-parallel
// path (Workers: 4) returns the same cuts.
func TestJointSearchGolden(t *testing.T) {
	blocks := kernelBlocksByName()
	covered := map[string]bool{}
	for _, g := range jointGoldens {
		covered[g.block] = true
		blk := blocks[g.block]
		if blk == nil {
			t.Fatalf("no kernel block %q", g.block)
		}
		label := fmt.Sprintf("%s (%d,%d,%d)", g.block, g.maxIn, g.maxOut, g.nise)
		rec := obs.NewRecorder(0)
		ctx := obs.WithRecorder(context.Background(), rec)
		// A budget makes the search charge its explored nodes.
		opt := Options{MaxIn: g.maxIn, MaxOut: g.maxOut, Model: latency.Default(), Budget: 1 << 40}
		seq, err := MultiCutContext(ctx, blk, opt, g.nise)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if s := cutsString(seq); s != g.cuts {
			t.Errorf("%s: cuts %s, want %s", label, s, g.cuts)
		}
		cs := rec.Counters()
		if e, p, r := cs.Get(obs.ExactExplored), cs.Get(obs.ExactLocalPrunes), cs.Get(obs.ExactBoundRaises); e != g.explored || p != g.prunes || r != g.raises {
			t.Errorf("%s: explored/local prunes/raises = %d/%d/%d, want %d/%d/%d",
				label, e, p, r, g.explored, g.prunes, g.raises)
		}
		opt.Workers = 4
		par, err := MultiCutContext(context.Background(), blk, opt, g.nise)
		if err != nil {
			t.Fatalf("%s workers 4: %v", label, err)
		}
		sameCuts(t, label+" workers 4", seq, par)
	}
	for name, blk := range blocks {
		if blk.N() <= 25 && !covered[name] {
			t.Errorf("kernel block %s (%d nodes) has no golden rows", name, blk.N())
		}
	}
}

// TestJointSizeCap: blocks over MaxJointNodes are refused whatever the
// node limit says; a block at the cap is searched (a pre-cancelled
// context then ends it with context.Canceled, not ErrTooLarge).
func TestJointSizeCap(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	over := randKernelBlock(rng, MaxJointNodes+1)
	if _, err := MultiCutContext(context.Background(), over, defaultOpts(), 2); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("%d nodes: err = %v, want ErrTooLarge", over.N(), err)
	}
	at := randKernelBlock(rng, MaxJointNodes)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, w := range []int{1, 4} {
		opt := defaultOpts()
		opt.Workers = w
		if _, err := MultiCutContext(ctx, at, opt, 2); !errors.Is(err, context.Canceled) {
			t.Fatalf("%d nodes, workers %d: err = %v, want context.Canceled", at.N(), w, err)
		}
	}
}

// wideInputBlock builds an n-node block declaring 120 external inputs
// whose nodes read mostly inputs 64 and up, from a small pool so that
// cut nodes share them: the joint search must count a shared input once
// however high its ID.
func wideInputBlock(rng *rand.Rand, n int) *ir.Block {
	bu := ir.NewBuilder("wide", 1)
	ins := bu.Inputs(120)
	var vals []ir.Value
	operand := func() ir.Value {
		if len(vals) > 0 && rng.Intn(2) == 0 {
			return vals[rng.Intn(len(vals))]
		}
		return ins[64+rng.Intn(5)+rng.Intn(2)*50]
	}
	for i := 0; i < n; i++ {
		a, b := operand(), operand()
		switch rng.Intn(4) {
		case 0:
			vals = append(vals, bu.Mul(a, b))
		case 1:
			vals = append(vals, bu.Xor(a, b))
		default:
			vals = append(vals, bu.Add(a, b))
		}
	}
	bu.LiveOut(vals[len(vals)-1])
	return bu.MustBuild()
}

// bruteForceJoint returns the best summed merit of at most nise disjoint
// feasible cuts, by enumerating every subset of the (≤ 16-node) block.
func bruteForceJoint(blk *ir.Block, opt Options, nise int) float64 {
	n := blk.N()
	merit := make([]float64, 1<<n) // 0 for infeasible or merit-less cuts
	for mask := 1; mask < 1<<n; mask++ {
		cut := graph.NewBitSet(n)
		for v := 0; v < n; v++ {
			if mask&(1<<v) != 0 {
				cut.Set(v)
			}
		}
		m := core.MetricsOf(blk, opt.Model, cut)
		if m.Convex() && m.NumIn <= opt.MaxIn && m.NumOut <= opt.MaxOut && m.Merit() > 0 {
			merit[mask] = m.Merit()
		}
	}
	// best(mask, k): either the lowest node of mask joins no cut, or it
	// joins one feasible cut c ⊆ mask beside k-1 cuts of mask &^ c.
	memo := map[[2]int]float64{}
	var best func(mask, k int) float64
	best = func(mask, k int) float64 {
		if mask == 0 || k == 0 {
			return 0
		}
		key := [2]int{mask, k}
		if r, ok := memo[key]; ok {
			return r
		}
		low := mask & -mask
		r := best(mask&^low, k)
		for c := mask; c > 0; c = (c - 1) & mask {
			if c&low != 0 && merit[c] > 0 {
				r = math.Max(r, merit[c]+best(mask&^c, k-1))
			}
		}
		memo[key] = r
		return r
	}
	return best(1<<n-1, nise)
}

// TestJointWideInputs: on blocks with over 100 declared inputs whose
// nodes read input IDs of 64 and up, the joint search matches a brute
// force over all disjoint convex (MaxIn, MaxOut) cut assignments.
func TestJointWideInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	for trial := 0; trial < 12; trial++ {
		blk := wideInputBlock(rng, 5+rng.Intn(4))
		for _, c := range [][3]int{{4, 2, 4}, {2, 1, 4}, {3, 1, 2}, {3, 2, 3}} {
			opt := Options{MaxIn: c[0], MaxOut: c[1], Model: latency.Default()}
			cuts, err := MultiCutContext(context.Background(), blk, opt, c[2])
			if err != nil {
				t.Fatal(err)
			}
			seen := graph.NewBitSet(blk.N())
			got := 0.0
			for _, cut := range cuts {
				m := core.MetricsOf(blk, opt.Model, cut.Nodes)
				if !m.Convex() || m.NumIn > opt.MaxIn || m.NumOut > opt.MaxOut || cut.Nodes.Intersects(seen) {
					t.Fatalf("trial %d %v: infeasible or overlapping cut %v (in %d, out %d)", trial, c, cut.Nodes, m.NumIn, m.NumOut)
				}
				seen.Or(cut.Nodes)
				got += cut.Merit()
			}
			if want := bruteForceJoint(blk, opt, c[2]); got != want {
				t.Fatalf("trial %d %v (%d nodes): joint merit %v, brute force %v", trial, c, blk.N(), got, want)
			}
		}
	}
}

// TestExploredWithoutBudget: the exact_explored counter reports the same
// positive node count whether or not a Budget is set.
func TestExploredWithoutBudget(t *testing.T) {
	blk := kernelBlocksByName()["fbital00_alloc"]
	run := func(budget int64, multi bool) int64 {
		ctx, explored := countExplored()
		opt := Options{MaxIn: 4, MaxOut: 2, Model: latency.Default(), Budget: budget}
		var err error
		if multi {
			_, err = MultiCutContext(ctx, blk, opt, 4)
		} else {
			_, err = SingleCutContext(ctx, blk, opt, nil)
		}
		if err != nil {
			t.Fatal(err)
		}
		return explored()
	}
	for _, multi := range []bool{true, false} {
		if e0, e1 := run(0, multi), run(1<<40, multi); e0 <= 0 || e0 != e1 {
			t.Errorf("multi %v: exact_explored = %d unbudgeted, %d budgeted; want equal and positive", multi, e0, e1)
		}
	}
}

// TestJointPreSearchLimits: the single-cut pre-searches run under the
// run's budget and context. A budget smaller than their cost ends the
// run with ErrBudget, and a pre-cancelled context with context.Canceled.
func TestJointPreSearchLimits(t *testing.T) {
	blk := kernelBlocksByName()["viterb00_acs"]
	opt := Options{MaxIn: 4, MaxOut: 2, Model: latency.Default(), Budget: 100}
	rctx, explored := countExplored()
	if _, err := MultiCutContext(rctx, blk, opt, 4); !errors.Is(err, ErrBudget) {
		t.Fatalf("budget 100: err = %v, want ErrBudget", err)
	}
	if e := explored(); e <= opt.Budget {
		t.Fatalf("budget 100: explored %d, want the pre-searches' cost past the budget", e)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt.Budget = 0
	if _, err := MultiCutContext(ctx, blk, opt, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled: err = %v, want context.Canceled", err)
	}
}

// TestJointNISE1: at NISE 1 the pre-searches answer alone. The cut has
// the single-cut optimum's merit, is published into the run's Bound, and
// is the same cut with the bound seeded at the optimum and on the
// subtree-parallel path. TestJointRandomGolden's (4,2,1) point pins the
// cuts themselves.
func TestJointNISE1(t *testing.T) {
	for _, name := range []string{"fbital00_alloc", "viterb00_acs", "autcor00_mac"} {
		blk := kernelBlocksByName()[name]
		for _, io := range [][2]int{{4, 2}, {2, 1}} {
			label := fmt.Sprintf("%s (%d,%d,1)", name, io[0], io[1])
			opt := Options{MaxIn: io[0], MaxOut: io[1], Model: latency.Default(), Bound: NewBound()}
			cuts, err := MultiCutContext(context.Background(), blk, opt, 1)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			single, err := SingleCutContext(context.Background(), blk, Options{MaxIn: io[0], MaxOut: io[1], Model: latency.Default()}, nil)
			if err != nil {
				t.Fatalf("%s single: %v", label, err)
			}
			if len(cuts) != 1 || single == nil || cuts[0].Merit() != single.Merit() {
				t.Fatalf("%s: cuts %s, want one cut of merit %v", label, cutsString(cuts), single.Merit())
			}
			if got := opt.Bound.Best(); got != single.Merit() {
				t.Errorf("%s: Bound %v after the run, want %v", label, got, single.Merit())
			}
			seeded := Options{MaxIn: io[0], MaxOut: io[1], Model: latency.Default(), Bound: raisedBound(single.Merit())}
			again, err := MultiCutContext(context.Background(), blk, seeded, 1)
			if err != nil {
				t.Fatalf("%s seeded: %v", label, err)
			}
			sameCuts(t, label+" seeded at the optimum", cuts, again)
			seeded.Bound, seeded.Workers = nil, 3
			par, err := MultiCutContext(context.Background(), blk, seeded, 1)
			if err != nil {
				t.Fatalf("%s workers 3: %v", label, err)
			}
			sameCuts(t, label+" workers 3", cuts, par)
		}
	}
}

// TestJointNegativeSWRejected: a model with a negative software latency
// is refused up front; the joint and single-cut bounds assume SW ≥ 0.
func TestJointNegativeSWRejected(t *testing.T) {
	bu := ir.NewBuilder("negsw", 1)
	x, y := bu.Input("x"), bu.Input("y")
	bu.LiveOut(bu.Xor(bu.Mul(x, y), y))
	blk := bu.MustBuild()
	opt := Options{MaxIn: 4, MaxOut: 2, Model: latency.Default()}
	opt.Model.SW[ir.OpXor] = -5
	if _, err := MultiCutContext(context.Background(), blk, opt, 2); err == nil {
		t.Error("MultiCutContext accepted a negative software latency")
	}
	if _, err := SingleCutContext(context.Background(), blk, opt, nil); err == nil {
		t.Error("SingleCutContext accepted a negative software latency")
	}
}
