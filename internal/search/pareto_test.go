package search_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/latency"
	"repro/internal/search"
)

func TestVectorDominates(t *testing.T) {
	base := search.Vector{Merit: 5, Area: 100, Energy: 2}
	cases := []struct {
		name string
		v, o search.Vector
		want bool
	}{
		{"equal never dominates", base, base, false},
		{"better merit", search.Vector{Merit: 6, Area: 100, Energy: 2}, base, true},
		{"smaller area", search.Vector{Merit: 5, Area: 90, Energy: 2}, base, true},
		{"higher energy", search.Vector{Merit: 5, Area: 100, Energy: 3}, base, true},
		{"trade-off incomparable", search.Vector{Merit: 6, Area: 110, Energy: 2}, base, false},
		{"strictly worse", search.Vector{Merit: 4, Area: 110, Energy: 1}, base, false},
	}
	for _, tc := range cases {
		if got := tc.v.Dominates(tc.o); got != tc.want {
			t.Errorf("%s: %+v.Dominates(%+v) = %v, want %v", tc.name, tc.v, tc.o, got, tc.want)
		}
	}
}

// paretoFingerprint runs the cuts-only pareto drive and serializes the
// selected cuts plus the full frontier into one string.
func paretoFingerprint(t *testing.T, spec kernels.Spec, workers int) string {
	t.Helper()
	app := spec.App
	cfg := core.DefaultConfig()
	cfg.Workers = workers
	r := &search.Runner{Workers: workers}
	cuts, stats, err := r.GenerateContext(context.Background(), app, cfg, search.Pareto(cfg.Model), nil)
	if err != nil {
		t.Fatalf("%s workers=%d: %v", spec.Name, workers, err)
	}
	if stats.Frontier == nil {
		t.Fatalf("%s workers=%d: multi-objective run returned no frontier", spec.Name, workers)
	}
	var sb strings.Builder
	for i, c := range cuts {
		fmt.Fprintf(&sb, "cut %d: %v merit=%v\n", i, c.Nodes, c.Merit())
	}
	for _, pt := range stats.Frontier.Points() {
		fmt.Fprintf(&sb, "frontier: blk=%d nodes=%v vec=%+v sel=%v\n", pt.Block, pt.Cut.Nodes, pt.Vector, pt.Selected)
	}
	return sb.String()
}

// TestParetoDeterminismParallel pins DESIGN.md's contract for the
// multi-objective path: with N workers the selected cuts AND the
// accumulated Pareto frontier are bit-identical to the sequential run.
// Under -race this also exercises the trajectory fan-out feeding the
// frontier for data races.
func TestParetoDeterminismParallel(t *testing.T) {
	for _, spec := range kernels.All() {
		if spec.CriticalSize > 120 {
			continue // keep -race runtime bounded; AES is covered by merit determinism tests
		}
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			seq := paretoFingerprint(t, spec, 1)
			for _, w := range []int{2, 8} {
				if got := paretoFingerprint(t, spec, w); got != seq {
					t.Fatalf("workers=%d diverged from sequential\n--- workers=%d\n%s--- workers=1\n%s", w, w, got, seq)
				}
			}
		})
	}
}

// TestParetoFrontierNonDominated checks the frontier invariant on a real
// run: no point dominates another, selected cuts are flagged, and points
// arrive in the documented deterministic order.
func TestParetoFrontierNonDominated(t *testing.T) {
	app := kernels.Fbital00()
	cfg := core.DefaultConfig()
	r := &search.Runner{}
	cuts, stats, err := r.GenerateContext(context.Background(), app, cfg, search.Pareto(cfg.Model), nil)
	if err != nil {
		t.Fatal(err)
	}
	pts := stats.Frontier.Points()
	if len(pts) == 0 {
		t.Fatal("empty frontier from a run that selected cuts")
	}
	for i, a := range pts {
		for j, b := range pts {
			if i != j && a.Vector.Dominates(b.Vector) {
				t.Fatalf("frontier point %d dominates point %d: %+v vs %+v", i, j, a.Vector, b.Vector)
			}
		}
	}
	var selected int
	for _, pt := range pts {
		if pt.Selected {
			selected++
		}
	}
	if selected == 0 {
		t.Fatal("no frontier point is flagged selected")
	}
	if selected > len(cuts) {
		t.Fatalf("%d selected frontier points exceed %d selected cuts", selected, len(cuts))
	}
	for i := 1; i < len(pts); i++ {
		a, b := pts[i-1].Vector, pts[i].Vector
		if a.Merit < b.Merit {
			t.Fatalf("frontier not sorted best-merit-first at %d: %+v then %+v", i, a, b)
		}
	}
}

// TestParetoRejectedByMeritOnlyEngines pins the pairing contract: exact
// and genetic engines cannot honor multi-objective selection and say so.
func TestParetoRejectedByMeritOnlyEngines(t *testing.T) {
	blk := kernels.Conven00().Blocks[0]
	model := latency.Default()
	lim := &search.Limits{MaxIn: 4, MaxOut: 2, NISE: 2}
	for _, name := range []string{"exact", "iterative", "genetic"} {
		eng, err := search.New(name, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := eng.RunContext(context.Background(), blk, search.Pareto(model), lim); err == nil || !strings.Contains(err.Error(), "cannot honor") {
			t.Fatalf("engine %q with pareto objective: err = %v, want merit-only rejection", name, err)
		}
	}
	// The KL engine delegates to the unified driver and supports it.
	kl, err := search.New("isegen", nil)
	if err != nil {
		t.Fatal(err)
	}
	cuts, stats, err := kl.RunContext(context.Background(), blk, search.Pareto(model), lim)
	if err != nil {
		t.Fatalf("KL with pareto: %v", err)
	}
	if stats.Frontier == nil {
		t.Fatal("KL pareto run carries no frontier")
	}
	if len(cuts) == 0 {
		t.Fatal("KL pareto run found no cuts on conven00")
	}
}

// TestParetoBoundedFrontier: the frontier bound caps Stats.Frontier, keeps
// the non-dominated invariant, and stays bit-identical across worker
// counts (eviction happens on the driver goroutine in round order).
func TestParetoBoundedFrontier(t *testing.T) {
	app := kernels.Fbital00()
	model := latency.Default()

	full := func(workers int) (*search.Frontier, string) {
		cfg := core.DefaultConfig()
		cfg.Workers = workers
		r := &search.Runner{Workers: workers}
		_, stats, err := r.GenerateContext(context.Background(), app, cfg, search.ParetoBounded(model, 3), nil)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for _, pt := range stats.Frontier.Points() {
			fmt.Fprintf(&sb, "blk=%d nodes=%v vec=%+v sel=%v\n", pt.Block, pt.Cut.Nodes, pt.Vector, pt.Selected)
		}
		return stats.Frontier, sb.String()
	}

	fr, seq := full(1)
	if fr.Len() > 3 {
		t.Fatalf("bounded frontier has %d points, want <= 3", fr.Len())
	}
	if fr.Len() == 0 {
		t.Fatal("bounded frontier is empty")
	}
	pts := fr.Points()
	for i, a := range pts {
		for j, b := range pts {
			if i != j && a.Vector.Dominates(b.Vector) {
				t.Fatalf("bounded frontier point %d dominates %d", i, j)
			}
		}
	}
	for _, w := range []int{2, 8} {
		if _, got := full(w); got != seq {
			t.Fatalf("bounded frontier diverged at workers=%d\n--- got\n%s--- want\n%s", w, got, seq)
		}
	}
}

// TestLimitsMaxFrontierEngineRun: the objective's frontier bound
// (ParetoBounded, the one frontier knob) holds through the per-block
// Engine.RunContext path too.
func TestLimitsMaxFrontierEngineRun(t *testing.T) {
	blk := kernels.Fbital00().Blocks[0]
	model := latency.Default()
	kl, err := search.New("isegen", nil)
	if err != nil {
		t.Fatal(err)
	}
	lim := &search.Limits{MaxIn: 4, MaxOut: 2, NISE: 4}
	_, stats, err := kl.RunContext(context.Background(), blk, search.ParetoBounded(model, 2), lim)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Frontier == nil || stats.Frontier.Len() == 0 {
		t.Fatal("no frontier from bounded pareto run")
	}
	if stats.Frontier.Len() > 2 {
		t.Fatalf("ParetoBounded(model, 2) ignored on the engine path: %d points", stats.Frontier.Len())
	}
}
