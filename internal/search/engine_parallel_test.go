package search_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/latency"
	"repro/internal/obs"
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
// bit-identical cuts for every subtree worker count (and so every split
// depth it selects).
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
			for _, w := range []int{2, 6, 16} {
				lim := baseLim
				lim.SubtreeWorkers = w
				cuts, _, err := eng.RunContext(context.Background(), blk, obj, &lim)
				if err != nil {
					t.Fatalf("%s/%s workers=%d: %v", spec.Name, name, w, err)
				}
				if got := cutsFingerprint(cuts); got != seq {
					t.Fatalf("%s/%s workers=%d diverged\n--- got\n%s--- want\n%s",
						spec.Name, name, w, got, seq)
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

// pollCancelCtx is a context that turns cancelled at a fixed point of the
// work instead of after a wall-clock sleep: its first polls-1 Err calls
// report nil, and from the polls-th on Err reports context.Canceled and
// Done is closed.
type pollCancelCtx struct {
	context.Context
	mu    sync.Mutex
	left  int
	polls int // Err calls so far
	done  chan struct{}
}

func newPollCancelCtx(parent context.Context, polls int) *pollCancelCtx {
	return &pollCancelCtx{Context: parent, left: polls, done: make(chan struct{})}
}

func (c *pollCancelCtx) Done() <-chan struct{} { return c.done }

func (c *pollCancelCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.polls++
	if c.left > 0 {
		if c.left--; c.left > 0 {
			return nil
		}
		close(c.done)
	}
	return context.Canceled
}

// TestKLCancelMidBlockAES: the same granularity for the K-L engine — an
// AES run cancelled partway through its trajectories returns
// context.Canceled having committed fewer toggles than a full run, and
// leaks no goroutines.
func TestKLCancelMidBlockAES(t *testing.T) {
	blk := kernels.AES().Blocks[0]
	model := latency.Default()
	kl, err := search.New("isegen", nil)
	if err != nil {
		t.Fatal(err)
	}
	lim := &search.Limits{MaxIn: 4, MaxOut: 2, NISE: 4, Workers: 2}
	run := func(polls int) (int64, int, error) {
		rec := obs.NewRecorder(0)
		ctx := newPollCancelCtx(obs.WithRecorder(context.Background(), rec), polls)
		_, _, err := kl.RunContext(ctx, blk, search.Merit(model), lim)
		ctx.mu.Lock()
		defer ctx.mu.Unlock()
		return rec.Counters().Map()["kl_toggles"], ctx.polls, err
	}
	fullToggles, fullPolls, err := run(math.MaxInt)
	if err != nil {
		t.Fatalf("uncancelled run: %v", err)
	}
	base := runtime.NumGoroutine()
	toggles, _, err := run(fullPolls / 3)
	t.Logf("full run: %d toggles, %d polls; cancelled at poll %d: %d toggles", fullToggles, fullPolls, fullPolls/3, toggles)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled (cancelled at poll %d of %d)", err, fullPolls/3, fullPolls)
	}
	if toggles >= fullToggles {
		t.Fatalf("cancelled run committed %d toggles, a full run %d: the abort did not cut the block short", toggles, fullToggles)
	}
	waitGoroutinesBase(t, base)
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
