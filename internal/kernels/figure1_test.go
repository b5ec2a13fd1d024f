package kernels

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/graph"
	"repro/internal/latency"
	"repro/internal/search"
)

// TestFigure1LargeScaleReuse verifies the paper's Figure 1 principle end
// to end: with one AFU, claiming six instances of the 4-node motif beats
// claiming three instances of the larger 6-node template, and ISEGEN's
// selection realizes the better total saving.
func TestFigure1LargeScaleReuse(t *testing.T) {
	app := Figure1Example()
	model := latency.Default()
	blk := app.Blocks[0]

	// Hand-build both templates from the first motif: nodes 0..3 are
	// mul, add, shra, xor; nodes 4..5 the min/max extension.
	motif := graph.NewBitSet(blk.N())
	for _, v := range []int{0, 1, 2, 3} {
		motif.Set(v)
	}
	extended := motif.Clone()
	extended.Set(4)
	extended.Set(5)

	countInstances := func(cut *graph.BitSet) (int, float64) {
		cands := []eval.Selection{}
		_ = cands
		m := core.MetricsOf(blk, model, cut)
		if !m.Convex() {
			t.Fatalf("template %v not convex", cut)
		}
		merit := m.Merit()
		// Count disjoint instances via the claimer pipeline.
		cutCopy := &core.Cut{Block: blk, Nodes: cut, SWLat: m.SWLat, HWLat: m.HWLat}
		sels := eval.ClaimAllWithReuse(app, []*core.Cut{cutCopy}, func(*core.Cut) int { return 0 })
		if len(sels) != 1 {
			t.Fatalf("claiming failed for %v", cut)
		}
		return len(sels[0].Instances), merit
	}

	nMotif, meritMotif := countInstances(motif)
	nExt, meritExt := countInstances(extended)
	if nMotif != 6 {
		t.Fatalf("motif instances = %d, want 6", nMotif)
	}
	if nExt != 3 {
		t.Fatalf("extended instances = %d, want 3", nExt)
	}
	// The paper's inequality: many small beats few large.
	if float64(nMotif)*meritMotif <= float64(nExt)*meritExt {
		t.Fatalf("reuse inequality violated: 6x%v <= 3x%v", meritMotif, meritExt)
	}

	// ISEGEN with one AFU and reuse-aware candidate scoring (the facade
	// pipeline) must realize at least the motif's total saving.
	cfg := core.DefaultConfig()
	cfg.NISE = 1
	var got []eval.Selection
	claimer := eval.NewClaimer(app)
	r := &search.Runner{Workers: 1}
	_, _, err := r.GenerateContext(context.Background(), app, cfg, search.ReuseAware(app, model, claimer),
		func(bi int, cut *core.Cut, excluded []*graph.BitSet) {
			sel := claimer.Claim(bi, cut, excluded)
			if len(sel.Instances) > 0 {
				got = append(got, sel)
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("ISEGEN found %d selections, want 1", len(got))
	}
	saving := eval.SelectionSavings(app, model, got[0])
	wantAtLeast := float64(nMotif) * meritMotif * blk.Freq
	if saving < wantAtLeast-1e-9 {
		t.Errorf("ISEGEN total saving %v below the 6-instance motif's %v (cut %v, %d instances)",
			saving, wantAtLeast, got[0].Cut.Nodes, len(got[0].Instances))
	}
}
