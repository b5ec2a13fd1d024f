package exact

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
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
// (the paper's joint-search limit) at four constraint points. Recorded
// from the BitSet-state search the word-state kernel replaced.
var jointGoldens = []jointGolden{
	{"conven00_enc", 4, 2, 4, "{0, 1, 2, 3, 4, 5}", 18, 11, 1},
	{"conven00_enc", 4, 2, 2, "{0, 1, 2, 3, 4, 5}", 18, 11, 1},
	{"conven00_enc", 2, 1, 4, "{2, 3, 4, 5} {0, 1}", 19, 11, 1},
	{"conven00_enc", 3, 1, 4, "{2, 3, 4, 5} {0, 1}", 19, 11, 1},
	{"conven00_glue", 4, 2, 4, "{3, 4} {0}", 12, 5, 1},
	{"conven00_glue", 4, 2, 2, "{3, 4} {0}", 12, 5, 1},
	{"conven00_glue", 2, 1, 4, "", 23, 8, 0},
	{"conven00_glue", 3, 1, 4, "", 23, 8, 0},
	{"conven00_setup", 4, 2, 4, "{0, 1}", 6, 3, 1},
	{"conven00_setup", 4, 2, 2, "{0, 1}", 6, 3, 1},
	{"conven00_setup", 2, 1, 4, "", 7, 4, 0},
	{"conven00_setup", 3, 1, 4, "", 7, 4, 0},
	{"fbital00_alloc", 4, 2, 4, "{7, 12, 13, 14, 15, 16, 17, 18, 19} {0, 1, 2, 3, 4, 5, 6, 8, 9, 10, 11}", 651, 411, 3},
	{"fbital00_alloc", 4, 2, 2, "{7, 12, 13, 14, 15, 16, 17, 18, 19} {0, 1, 2, 3, 4, 5, 6, 8, 9, 10, 11}", 333, 154, 4},
	{"fbital00_alloc", 2, 1, 4, "{16, 17, 18, 19} {10, 11, 12, 13, 14, 15} {9} {1, 2, 3, 4, 5, 6}", 12618, 4689, 2},
	{"fbital00_alloc", 3, 1, 4, "{16, 17, 18, 19} {7, 10, 11, 12, 13, 14, 15} {8, 9} {0, 1, 2, 3, 4, 5, 6}", 1819, 983, 3},
	{"fbital00_glue", 4, 2, 4, "{3, 4} {0}", 12, 5, 1},
	{"fbital00_glue", 4, 2, 2, "{3, 4} {0}", 12, 5, 1},
	{"fbital00_glue", 2, 1, 4, "", 23, 8, 0},
	{"fbital00_glue", 3, 1, 4, "", 23, 8, 0},
	{"fbital00_setup", 4, 2, 4, "{0, 1}", 6, 3, 1},
	{"fbital00_setup", 4, 2, 2, "{0, 1}", 6, 3, 1},
	{"fbital00_setup", 2, 1, 4, "", 7, 4, 0},
	{"fbital00_setup", 3, 1, 4, "", 7, 4, 0},
	{"viterb00_acs", 4, 2, 4, "{16, 17, 18, 19, 20, 21} {10, 11, 12, 13} {6, 7, 8, 9} {0, 1, 2, 3, 4, 5}", 2306192, 711968, 6},
	{"viterb00_acs", 4, 2, 2, "{16, 17, 18, 19, 20, 21} {0, 1, 2, 3, 4, 5}", 90898, 14322, 5},
	{"viterb00_acs", 2, 1, 4, "{19, 21} {18, 20} {3, 4, 5} {0, 1, 2}", 39920, 6844, 4},
	{"viterb00_acs", 3, 1, 4, "{17, 19, 21} {13, 18, 20} {3, 4, 5} {0, 1, 2}", 49732, 10599, 4},
	{"viterb00_glue", 4, 2, 4, "{3, 4} {0}", 12, 5, 1},
	{"viterb00_glue", 4, 2, 2, "{3, 4} {0}", 12, 5, 1},
	{"viterb00_glue", 2, 1, 4, "", 23, 8, 0},
	{"viterb00_glue", 3, 1, 4, "", 23, 8, 0},
	{"viterb00_setup", 4, 2, 4, "{0, 1}", 6, 3, 1},
	{"viterb00_setup", 4, 2, 2, "{0, 1}", 6, 3, 1},
	{"viterb00_setup", 2, 1, 4, "", 7, 4, 0},
	{"viterb00_setup", 3, 1, 4, "", 7, 4, 0},
	{"autcor00_mac", 4, 2, 4, "{13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24} {10, 12} {6, 8} {2, 4}", 1710090, 529098, 4},
	{"autcor00_mac", 4, 2, 2, "{13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24} {10, 12}", 49406, 7410, 2},
	{"autcor00_mac", 2, 1, 4, "{16, 17, 18, 19, 20, 21, 22, 23, 24} {14} {12} {10}", 300803, 45618, 3},
	{"autcor00_mac", 3, 1, 4, "{16, 17, 18, 19, 20, 21, 22, 23, 24} {14, 15} {12, 13} {10, 11}", 833330, 154198, 1},
	{"autcor00_glue", 4, 2, 4, "{3, 4} {0}", 12, 5, 1},
	{"autcor00_glue", 4, 2, 2, "{3, 4} {0}", 12, 5, 1},
	{"autcor00_glue", 2, 1, 4, "", 23, 8, 0},
	{"autcor00_glue", 3, 1, 4, "", 23, 8, 0},
	{"autcor00_setup", 4, 2, 4, "{0, 1}", 6, 3, 1},
	{"autcor00_setup", 4, 2, 2, "{0, 1}", 6, 3, 1},
	{"autcor00_setup", 2, 1, 4, "", 7, 4, 0},
	{"autcor00_setup", 3, 1, 4, "", 7, 4, 0},
	{"adpcm_decoder_glue", 4, 2, 4, "{3, 4} {0}", 12, 5, 1},
	{"adpcm_decoder_glue", 4, 2, 2, "{3, 4} {0}", 12, 5, 1},
	{"adpcm_decoder_glue", 2, 1, 4, "", 23, 8, 0},
	{"adpcm_decoder_glue", 3, 1, 4, "", 23, 8, 0},
	{"adpcm_decoder_setup", 4, 2, 4, "{0, 1}", 6, 3, 1},
	{"adpcm_decoder_setup", 4, 2, 2, "{0, 1}", 6, 3, 1},
	{"adpcm_decoder_setup", 2, 1, 4, "", 7, 4, 0},
	{"adpcm_decoder_setup", 3, 1, 4, "", 7, 4, 0},
	{"adpcm_decoder_unpack", 4, 2, 4, "{1, 2, 3, 4} {0}", 16, 9, 1},
	{"adpcm_decoder_unpack", 4, 2, 2, "{1, 2, 3, 4} {0}", 16, 9, 1},
	{"adpcm_decoder_unpack", 2, 1, 4, "{3, 4} {1, 2} {0}", 25, 13, 1},
	{"adpcm_decoder_unpack", 3, 1, 4, "{3, 4} {1, 2} {0}", 25, 13, 1},
	{"adpcm_coder_glue", 4, 2, 4, "{3, 4} {0}", 12, 5, 1},
	{"adpcm_coder_glue", 4, 2, 2, "{3, 4} {0}", 12, 5, 1},
	{"adpcm_coder_glue", 2, 1, 4, "", 23, 8, 0},
	{"adpcm_coder_glue", 3, 1, 4, "", 23, 8, 0},
	{"adpcm_coder_setup", 4, 2, 4, "{0, 1}", 6, 3, 1},
	{"adpcm_coder_setup", 4, 2, 2, "{0, 1}", 6, 3, 1},
	{"adpcm_coder_setup", 2, 1, 4, "", 7, 4, 0},
	{"adpcm_coder_setup", 3, 1, 4, "", 7, 4, 0},
	{"fft00_glue", 4, 2, 4, "{3, 4} {0}", 12, 5, 1},
	{"fft00_glue", 4, 2, 2, "{3, 4} {0}", 12, 5, 1},
	{"fft00_glue", 2, 1, 4, "", 23, 8, 0},
	{"fft00_glue", 3, 1, 4, "", 23, 8, 0},
	{"fft00_setup", 4, 2, 4, "{0, 1}", 6, 3, 1},
	{"fft00_setup", 4, 2, 2, "{0, 1}", 6, 3, 1},
	{"fft00_setup", 2, 1, 4, "", 7, 4, 0},
	{"fft00_setup", 3, 1, 4, "", 7, 4, 0},
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
		var got []string
		for _, c := range seq {
			got = append(got, c.Nodes.String())
		}
		if s := strings.Join(got, " "); s != g.cuts {
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
