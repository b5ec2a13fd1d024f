package exact

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/kernels"
)

// sameCut compares two optional cuts for bit-identity.
func sameCut(t *testing.T, label string, seq, par *core.Cut) {
	t.Helper()
	if (seq == nil) != (par == nil) {
		t.Fatalf("%s: sequential cut = %v, parallel = %v", label, seq, par)
	}
	if seq == nil {
		return
	}
	if !seq.Nodes.Equal(par.Nodes) {
		t.Fatalf("%s: sequential nodes %v != parallel nodes %v", label, seq.Nodes, par.Nodes)
	}
	if seq.Merit() != par.Merit() || seq.NumIn != par.NumIn || seq.NumOut != par.NumOut {
		t.Fatalf("%s: cut metrics differ: seq (%v,%d,%d), par (%v,%d,%d)",
			label, seq.Merit(), seq.NumIn, seq.NumOut, par.Merit(), par.NumIn, par.NumOut)
	}
}

func sameCuts(t *testing.T, label string, seq, par []*core.Cut) {
	t.Helper()
	if len(seq) != len(par) {
		t.Fatalf("%s: %d sequential cuts != %d parallel cuts", label, len(seq), len(par))
	}
	for i := range seq {
		sameCut(t, label, seq[i], par[i])
	}
}

// TestParallelExactDeterminism pins the tentpole contract: the parallel
// branch-and-bound (shared best-bound, any worker count, so split depths
// from 4 to 9) returns cuts bit-identical to the sequential search, for
// SingleCut, Iterative and MultiCut alike. Run under -race in CI.
func TestParallelExactDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	workers := []int{2, 3, 8, 64}
	for trial := 0; trial < 12; trial++ {
		blk := randKernelBlock(rng, 8+rng.Intn(12))
		opt := defaultOpts()
		seqSingle, err := SingleCutContext(context.Background(), blk, opt, nil)
		if err != nil {
			t.Fatal(err)
		}
		seqIter, err := IterativeContext(context.Background(), blk, opt, 3)
		if err != nil {
			t.Fatal(err)
		}
		seqMulti, err := MultiCutContext(context.Background(), blk, opt, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range workers {
			popt := opt
			popt.Workers = w
			parSingle, err := SingleCutContext(context.Background(), blk, popt, nil)
			if err != nil {
				t.Fatal(err)
			}
			sameCut(t, "single", seqSingle, parSingle)
			parIter, err := IterativeContext(context.Background(), blk, popt, 3)
			if err != nil {
				t.Fatal(err)
			}
			sameCuts(t, "iterative", seqIter, parIter)
			parMulti, err := MultiCutContext(context.Background(), blk, popt, 2)
			if err != nil {
				t.Fatal(err)
			}
			sameCuts(t, "multi", seqMulti, parMulti)
		}
	}
}

// TestParallelExactKernelSuite runs the determinism check on the real
// benchmark suite blocks (within the paper's per-engine size limits) at
// several worker counts.
func TestParallelExactKernelSuite(t *testing.T) {
	opt := defaultOpts()
	opt.Budget = 2_000_000_000
	for _, spec := range kernels.All() {
		blk := spec.App.Blocks[0]
		if spec.CriticalSize <= 100 {
			seq, err := IterativeContext(context.Background(), blk, opt, 4)
			if err != nil {
				t.Fatalf("%s: %v", spec.Name, err)
			}
			for _, w := range []int{2, 5} {
				popt := opt
				popt.Workers = w
				par, err := IterativeContext(context.Background(), blk, popt, 4)
				if err != nil {
					t.Fatalf("%s (workers %d): %v", spec.Name, w, err)
				}
				sameCuts(t, spec.Name+"/iterative", seq, par)
			}
		}
		if spec.CriticalSize <= 25 {
			seq, err := MultiCutContext(context.Background(), blk, opt, 2)
			if err != nil {
				t.Fatalf("%s: %v", spec.Name, err)
			}
			for _, w := range []int{2, 5} {
				popt := opt
				popt.Workers = w
				par, err := MultiCutContext(context.Background(), blk, popt, 2)
				if err != nil {
					t.Fatalf("%s (workers %d): %v", spec.Name, w, err)
				}
				sameCuts(t, spec.Name+"/multi", seq, par)
			}
		}
	}
}

// waitGoroutines polls until the goroutine count returns to at most base.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d alive, want <= %d", runtime.NumGoroutine(), base)
}

// TestExactContextCancelMidBlock pins the in-block cancellation
// granularity: a block far too large to enumerate aborts mid-search
// (amortized context checks inside the inner loop), promptly, and leaks
// no subtree worker goroutines.
func TestExactContextCancelMidBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	blk := randKernelBlock(rng, 120) // intractable without a budget
	for _, w := range []int{1, 4} {
		base := runtime.NumGoroutine()
		opt := defaultOpts()
		opt.Workers = w
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(30 * time.Millisecond)
			cancel()
		}()
		start := time.Now()
		_, err := SingleCutContext(ctx, blk, opt, nil)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers %d: err = %v, want context.Canceled", w, err)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("workers %d: cancellation took %v", w, elapsed)
		}
		waitGoroutines(t, base)
		cancel()
	}
}

// TestExactContextPreCancelled: an already-cancelled context aborts before
// any meaningful work.
func TestExactContextPreCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	blk := randKernelBlock(rng, 60)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SingleCutContext(ctx, blk, defaultOpts(), nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("single: err = %v, want context.Canceled", err)
	}
	if _, err := MultiCutContext(ctx, blk, defaultOpts(), 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("multi: err = %v, want context.Canceled", err)
	}
	if _, err := IterativeContext(ctx, blk, defaultOpts(), 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("iterative: err = %v, want context.Canceled", err)
	}
}

// TestSingleCutBudgetParallel: the explored-node budget is shared across
// subtree workers, so a tiny budget still aborts the parallel search.
func TestSingleCutBudgetParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	blk := randKernelBlock(rng, 40)
	opt := defaultOpts()
	opt.Budget = 50
	opt.Workers = 4
	if _, err := SingleCutContext(context.Background(), blk, opt, nil); !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
}

// TestExcludedRespectedParallel: frozen/excluded nodes stay out of the cut
// on the parallel path too (the fork shares the frozen preprocessing).
func TestExcludedRespectedParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 6; trial++ {
		blk := randKernelBlock(rng, 10+rng.Intn(8))
		excl := graph.NewBitSet(blk.N())
		for v := 0; v < blk.N(); v += 3 {
			excl.Set(v)
		}
		opt := defaultOpts()
		seq, err := SingleCutContext(context.Background(), blk, opt, excl)
		if err != nil {
			t.Fatal(err)
		}
		opt.Workers = 3
		par, err := SingleCutContext(context.Background(), blk, opt, excl)
		if err != nil {
			t.Fatal(err)
		}
		sameCut(t, "excluded", seq, par)
		if par != nil && par.Nodes.Intersects(excl) {
			t.Fatal("parallel cut contains an excluded node")
		}
	}
}

// TestSubtreeDepthClamped pins the resource bound on the task list: even
// an absurd worker count (remotely settable through the service's
// subtree_workers) yields a split depth clamped so the prefix enumeration
// stays small, and results still match the sequential search.
func TestSubtreeDepthClamped(t *testing.T) {
	for branching, wantMax := 2, 12; branching <= 5; branching++ {
		d := splitDepthFor(1<<30, 1000, branching)
		if d > wantMax {
			t.Fatalf("splitDepthFor(branching %d) = %d, beyond the task bound", branching, d)
		}
		limit := 1
		for i := 0; i < d; i++ {
			limit *= branching
		}
		if limit > maxSubtreeTasks {
			t.Fatalf("branching %d depth %d allows %d tasks > %d", branching, d, limit, maxSubtreeTasks)
		}
	}
	rng := rand.New(rand.NewSource(21))
	blk := randKernelBlock(rng, 18)
	opt := defaultOpts()
	seq, err := SingleCutContext(context.Background(), blk, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	opt.Workers = 1 << 10 // automatic depth 13, past the clamp for every branching
	par, err := SingleCutContext(context.Background(), blk, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameCut(t, "clamped-depth", seq, par)
	popt := defaultOpts()
	popt.Workers = 1 << 10
	multiSeq, err := MultiCutContext(context.Background(), blk, defaultOpts(), 2)
	if err != nil {
		t.Fatal(err)
	}
	multiPar, err := MultiCutContext(context.Background(), blk, popt, 2)
	if err != nil {
		t.Fatal(err)
	}
	sameCuts(t, "clamped-depth-multi", multiSeq, multiPar)
}
