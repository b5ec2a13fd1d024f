package search

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/latency"
)

// waitGoroutines polls until the goroutine count returns to at most base,
// failing the test otherwise. Cancellation must not strand pool workers.
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

func TestParallelForCancelStopsAndDrains(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	const n = 1000
	err := parallelFor(ctx, 4, n, func(i int) {
		if started.Add(1) == 3 {
			cancel()
		}
		time.Sleep(time.Millisecond)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := started.Load(); got >= n {
		t.Fatalf("cancellation did not short-circuit: all %d items ran", n)
	}
	waitGoroutines(t, base)
}

func TestParallelForNilErrorWhenUncancelled(t *testing.T) {
	var ran atomic.Int64
	if err := parallelFor(context.Background(), 4, 100, func(i int) { ran.Add(1) }); err != nil {
		t.Fatalf("err = %v, want nil", err)
	}
	if ran.Load() != 100 {
		t.Fatalf("ran %d items, want 100", ran.Load())
	}
}

func TestRunBlocksContextCancelPromptNoLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	app := kernels.FFT00()
	// Many copies of the same blocks: enough work that the sweep cannot
	// finish before cancellation lands.
	blks := app.Blocks
	for i := 0; i < 64; i++ {
		blks = append(blks, app.Blocks...)
	}
	r := &Runner{Workers: 4}
	obj := Merit(latency.Default())
	lim := &Limits{MaxIn: 4, MaxOut: 2, NISE: 4}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	eng := &KL{}
	err := r.ForEachContext(ctx, len(blks), func(i int) {
		_, _, _ = eng.RunContext(ctx, blks[i], obj, lim)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// "Promptly": in-flight blocks may finish, queued ones must not start.
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	waitGoroutines(t, base)
}

// TestParallelForPanicPropagatesToCaller pins the containment contract:
// a panic inside a pooled worker re-raises on the calling goroutine (so a
// serving layer's recover catches it regardless of worker count), skips
// the remaining items, and strands no goroutines.
func TestParallelForPanicPropagatesToCaller(t *testing.T) {
	base := runtime.NumGoroutine()
	var ran atomic.Int64
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("panic did not propagate to the caller")
			}
			if s, ok := r.(string); !ok || s != "boom" {
				t.Fatalf("recovered %v, want \"boom\"", r)
			}
		}()
		_ = parallelFor(context.Background(), 4, 1000, func(i int) {
			if ran.Add(1) == 3 {
				panic("boom")
			}
			time.Sleep(time.Millisecond)
		})
	}()
	if ran.Load() >= 1000 {
		t.Fatal("panic did not short-circuit the remaining items")
	}
	waitGoroutines(t, base)
}

func TestGenerateContextCancelledUpFront(t *testing.T) {
	app := kernels.Fbital00()
	cfg := core.DefaultConfig()
	cfg.MaxIn, cfg.MaxOut, cfg.NISE = 4, 2, 4
	r := &Runner{Workers: 2}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cuts, _, err := r.GenerateContext(ctx, app, cfg, nil, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(cuts) != 0 {
		t.Fatalf("pre-cancelled run selected %d cuts, want 0", len(cuts))
	}
}

func TestGenerateContextMatchesGenerate(t *testing.T) {
	app := kernels.Fbital00()
	cfg := core.DefaultConfig()
	cfg.MaxIn, cfg.MaxOut, cfg.NISE = 4, 2, 4
	r := &Runner{Workers: 2}
	want, _, err := r.GenerateContext(context.Background(), app, cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := r.GenerateContext(context.Background(), app, cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d cuts, want %d", len(got), len(want))
	}
	for i := range got {
		if !got[i].Nodes.Equal(want[i].Nodes) {
			t.Fatalf("cut %d differs under an uncancelled context", i)
		}
	}
}
