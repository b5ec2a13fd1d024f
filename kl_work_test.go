package isegen_test

import (
	"context"
	"testing"

	isegen "repro"
	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/latency"
	"repro/internal/obs"
	"repro/internal/search"
)

// checkKLWork requires the K-L work counters recorded by run to equal want
// at worker counts 1 and 0. kl_toggles counts committed toggles, kl_probes
// digest rebuilds and kl_gaincache_hits cached gains, so
// kl_gaincache_hits + kl_probes is the number of candidate gains scored: a
// kernel that skips or double-scores candidates, a cache rule that starts
// over-invalidating (still bit-identical, just slow) or a pass that runs
// past its cutoff fails here even when every cut agrees.
func checkKLWork(t *testing.T, want map[string]int64, run func(ctx context.Context, workers int) error) {
	t.Helper()
	for _, workers := range []int{1, 0} {
		rec := obs.NewRecorder(0)
		if err := run(obs.WithRecorder(context.Background(), rec), workers); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := rec.Counters().Map()
		for name, w := range want {
			if got[name] != w {
				t.Errorf("workers=%d: %s = %d, want %d", workers, name, got[name], w)
			}
		}
	}
}

// TestFigure4KLWorkCounters pins the K-L work of a default-config run over
// the Figure 4 kernels exactly.
func TestFigure4KLWorkCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("two full Figure 4 suites")
	}
	want := map[string]int64{
		"kl_toggles":        2821,
		"kl_probes":         17166,
		"kl_gaincache_hits": 119976,
	}
	model := latency.Default()
	checkKLWork(t, want, func(ctx context.Context, workers int) error {
		r := &search.Runner{Workers: workers, Cache: search.NewCostCache()}
		for _, spec := range kernels.All() {
			if _, _, err := r.GenerateContext(ctx, spec.App, core.DefaultConfig(), search.Merit(model), nil); err != nil {
				return err
			}
		}
		return nil
	})
}

// TestAESKLWorkCounters pins the K-L work of a default-params AES
// GenerateContext, the paper's headline workload, exactly.
func TestAESKLWorkCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("two full AES runs")
	}
	want := map[string]int64{
		"kl_toggles":        502,
		"kl_probes":         21277,
		"kl_gaincache_hits": 169179,
	}
	checkKLWork(t, want, func(ctx context.Context, workers int) error {
		cfg := isegen.DefaultConfig()
		cfg.Workers = workers
		_, err := isegen.GenerateContext(ctx, kernels.AES(), cfg, nil)
		return err
	})
}
