package search_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/latency"
	"repro/internal/search"
)

// fingerprint renders a cut list precisely enough to detect any drift.
func fingerprint(cuts []*core.Cut) string {
	s := ""
	for _, c := range cuts {
		s += fmt.Sprintf("%v %.17g %d %d %d %.17g;", c.Nodes, c.Merit(), c.NumIn, c.NumOut, c.SWLat, c.HWLat)
	}
	return s
}

// TestPooledStateParallelDeterminism pins the pooled-trajectory restart
// fan-out under the race detector: one long-lived Runner serving repeated
// GenerateContext calls — whose engines recycle State workspaces across
// seeds and whose pools are hit concurrently by the worker fan-out — must
// produce bit-identical cut lists on every call and for every worker
// count.
func TestPooledStateParallelDeterminism(t *testing.T) {
	model := latency.Default()
	for _, spec := range []struct {
		name string
		app  func() *kernels.Spec
	}{
		{"fbital00", func() *kernels.Spec { s := kernels.All()[1]; return &s }},
		{"adpcm_coder", func() *kernels.Spec { s := kernels.All()[5]; return &s }},
	} {
		spec := spec.app()
		var want string
		for _, workers := range []int{1, 2, 4, 8} {
			r := &search.Runner{Workers: workers, Cache: search.NewCostCache()}
			for rep := 0; rep < 3; rep++ {
				cfg := core.DefaultConfig()
				cfg.Workers = workers
				cuts, _, err := r.GenerateContext(context.Background(), spec.App, cfg, search.Merit(model), nil)
				if err != nil {
					t.Fatal(err)
				}
				got := fingerprint(cuts)
				if want == "" {
					want = got
				} else if got != want {
					t.Fatalf("%s workers=%d rep=%d: cuts drifted\ngot:  %s\nwant: %s",
						spec.Name, workers, rep, got, want)
				}
			}
		}
	}
}
