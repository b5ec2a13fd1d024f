package search_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/latency"
	"repro/internal/search"
)

// cutsFingerprint serializes an engine result for bit-identity checks.
func cutsFingerprint(cuts []*core.Cut) string {
	var sb strings.Builder
	for i, c := range cuts {
		fmt.Fprintf(&sb, "cut %d: %v merit=%v io=(%d,%d)\n", i, c.Nodes, c.Merit(), c.NumIn, c.NumOut)
	}
	return sb.String()
}

// TestEngineSubtreeWorkersDeterminism pins the Limits.SubtreeWorkers
// contract through the unified engine layer: the exact engines return
// bit-identical cuts for every subtree worker count and split depth.
func TestEngineSubtreeWorkersDeterminism(t *testing.T) {
	model := latency.Default()
	obj := search.Merit(model)
	for _, spec := range kernels.All() {
		blk := spec.App.Blocks[0]
		for _, name := range []string{"iterative", "exact"} {
			if spec.CriticalSize > search.DefaultNodeLimit(name) {
				continue
			}
			eng, err := search.New(name, nil)
			if err != nil {
				t.Fatal(err)
			}
			baseLim := search.Limits{
				MaxIn: 4, MaxOut: 2, NISE: 2,
				NodeLimit: search.DefaultNodeLimit(name), Budget: search.DefaultBudget,
			}
			seqCuts, _, err := eng.RunContext(context.Background(), blk, obj, &baseLim)
			if err != nil {
				t.Fatalf("%s/%s sequential: %v", spec.Name, name, err)
			}
			seq := cutsFingerprint(seqCuts)
			for _, w := range []int{2, 6} {
				for _, d := range []int{0, 3} {
					lim := baseLim
					lim.SubtreeWorkers, lim.SplitDepth = w, d
					cuts, _, err := eng.RunContext(context.Background(), blk, obj, &lim)
					if err != nil {
						t.Fatalf("%s/%s workers=%d depth=%d: %v", spec.Name, name, w, d, err)
					}
					if got := cutsFingerprint(cuts); got != seq {
						t.Fatalf("%s/%s workers=%d depth=%d diverged\n--- got\n%s--- want\n%s",
							spec.Name, name, w, d, got, seq)
					}
				}
			}
		}
	}
}

// TestExactCancelMidBlockAES pins the in-block cancellation granularity on
// the workload that motivated it: the 696-node AES block is intractable
// for the exact single-cut search, so a cancelled run must abort
// mid-search (not at the next work-item boundary), promptly and without
// leaking subtree worker goroutines.
func TestExactCancelMidBlockAES(t *testing.T) {
	blk := kernels.AES().Blocks[0]
	model := latency.Default()
	obj := search.Merit(model)
	for _, w := range []int{1, 4} {
		base := runtime.NumGoroutine()
		eng, err := search.New("iterative", nil)
		if err != nil {
			t.Fatal(err)
		}
		// No node limit, no budget: only cancellation can stop this.
		lim := &search.Limits{MaxIn: 4, MaxOut: 2, NISE: 1, SubtreeWorkers: w}
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(50 * time.Millisecond)
			cancel()
		}()
		start := time.Now()
		_, _, err = eng.RunContext(ctx, blk, obj, lim)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", w, err)
		}
		if elapsed := time.Since(start); elapsed > 10*time.Second {
			t.Fatalf("workers=%d: mid-block cancellation took %v", w, elapsed)
		}
		waitGoroutinesBase(t, base)
		cancel()
	}
}

// TestKLCancelMidBlockAES: the same granularity for the K-L engine — a
// single AES trajectory aborts mid-pass through TrajectoryContext.
func TestKLCancelMidBlockAES(t *testing.T) {
	base := runtime.NumGoroutine()
	blk := kernels.AES().Blocks[0]
	model := latency.Default()
	kl, err := search.New("isegen", nil)
	if err != nil {
		t.Fatal(err)
	}
	lim := &search.Limits{MaxIn: 4, MaxOut: 2, NISE: 4, Workers: 2}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, _, err = kl.RunContext(ctx, blk, search.Merit(model), lim)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// A full AES K-L run takes many seconds; mid-block abort must be far
	// faster than finishing the block.
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("mid-block cancellation took %v", elapsed)
	}
	waitGoroutinesBase(t, base)
	cancel()
}

// waitGoroutinesBase polls until the goroutine count returns to base
// (mirrors the helper in the package-internal context tests, which an
// external test file cannot reach).
func waitGoroutinesBase(t *testing.T, base int) {
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
