package search_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/kernels"
	"repro/internal/latency"
	"repro/internal/search"
)

// TestObjectiveRegistryRoundTrip pins the registry contract mirrored from
// the engine registry: every advertised name constructs with reasonable
// parameters and drives a full cuts-only run on a small application.
func TestObjectiveRegistryRoundTrip(t *testing.T) {
	app := kernels.Conven00()
	params := search.ObjectiveParams{
		LatencyBudget: 2,
		ClassWeights:  map[string]float64{"memory": 0.5},
	}
	names := search.ObjectiveNames()
	if len(names) < 7 {
		t.Fatalf("objective registry lists %v, want at least the 7 documented names", names)
	}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			obj, err := search.NewObjective(name, app, latency.Default(), params)
			if err != nil {
				t.Fatalf("NewObjective(%q): %v", name, err)
			}
			cfg := core.DefaultConfig()
			r := &search.Runner{}
			cuts, stats, err := r.GenerateContext(context.Background(), app, cfg, obj, nil)
			if err != nil {
				t.Fatalf("Generate under %q: %v", name, err)
			}
			if len(cuts) == 0 {
				t.Fatalf("objective %q selected no cuts on conven00", name)
			}
			if (stats.Frontier != nil) != obj.MultiObjective() {
				t.Fatalf("objective %q: frontier presence %v, MultiObjective %v",
					name, stats.Frontier != nil, obj.MultiObjective())
			}
		})
	}
}

// TestObjectiveRegistryErrors pins the failure modes: unknown names list
// the registry, application-scoped objectives demand an application, and
// "latency" demands a budget.
func TestObjectiveRegistryErrors(t *testing.T) {
	model := latency.Default()
	app := kernels.Conven00()
	if _, err := search.NewObjective("speedup", app, model, search.ObjectiveParams{}); err == nil || !strings.Contains(err.Error(), "unknown objective") {
		t.Fatalf("unknown name: err = %v", err)
	}
	for _, name := range []string{"reuse", "energy", "class"} {
		if _, err := search.NewObjective(name, nil, model, search.ObjectiveParams{}); err == nil || !strings.Contains(err.Error(), "application") {
			t.Fatalf("%q without app: err = %v", name, err)
		}
	}
	if _, err := search.NewObjective("latency", app, model, search.ObjectiveParams{}); err == nil || !strings.Contains(err.Error(), "latency budget") {
		t.Fatalf("latency without budget: err = %v", err)
	}
}

// TestLatencyBudgetedObjective pins the budget semantics: every selected
// cut's AFU occupies at most the budget in core cycles, and a tiny budget
// selects a subset of (or different, smaller) cuts than unconstrained
// merit.
func TestLatencyBudgetedObjective(t *testing.T) {
	app := kernels.Fbital00()
	cfg := core.DefaultConfig()
	r := &search.Runner{}
	cuts, _, err := r.GenerateContext(context.Background(), app, cfg, search.LatencyBudgeted(cfg.Model, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cuts) == 0 {
		t.Fatal("no cuts under a 1-cycle budget; fbital00 has single-cycle candidates")
	}
	for _, c := range cuts {
		if c.HWCyclesInt() > 1 {
			t.Fatalf("cut %v occupies %d cycles, budget 1", c.Nodes, c.HWCyclesInt())
		}
	}
	merit, _, err := r.GenerateContext(context.Background(), app, cfg, search.Merit(cfg.Model), nil)
	if err != nil {
		t.Fatal(err)
	}
	over := 0
	for _, c := range merit {
		if c.HWCyclesInt() > 1 {
			over++
		}
	}
	if over == 0 {
		t.Skip("merit run found no multi-cycle cut; budget comparison is vacuous")
	}
}

// TestClassWeightedObjective pins the weighting semantics: zeroing a
// class's weight excludes its blocks from selection.
func TestClassWeightedObjective(t *testing.T) {
	app := kernels.ADPCMDecoder()
	classes := map[*ir.Block]string{}
	for _, blk := range app.Blocks {
		classes[blk] = search.BlockClass(blk)
	}
	// Zero out the class of the critical (largest) block.
	hot := app.Blocks[0]
	for _, blk := range app.Blocks {
		if blk.N() > hot.N() {
			hot = blk
		}
	}
	weights := map[string]float64{classes[hot]: 0}
	cfg := core.DefaultConfig()
	r := &search.Runner{}
	cuts, _, err := r.GenerateContext(context.Background(), app, cfg, search.ClassWeighted(app, cfg.Model, nil, weights), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cuts {
		if classes[c.Block] == classes[hot] {
			t.Fatalf("cut %v selected in zero-weighted class %q block %q", c.Nodes, classes[hot], c.Block.Name)
		}
	}
}
