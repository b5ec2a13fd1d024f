package experiments

import (
	"context"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/search"
	"repro/internal/sim"
)

// generateWithReuse runs the full ISEGEN flow (unified driver + reuse
// claiming) and returns the evaluation report. A non-nil cache shares cut
// costings across calls on the same blocks (e.g. the Figure 6/7 sweeps).
func generateWithReuse(app *ir.Application, o Options, cache *search.CostCache) (*eval.Report, error) {
	sels, err := selectionsWithReuse(app, o, cache)
	if err != nil {
		return nil, err
	}
	return eval.Evaluate(app, o.Model, sels)
}

// selectionsWithReuse is the shared ISEGEN-with-reuse pipeline: the
// search.Runner driver under the reuse-aware objective, claiming every
// isomorphic instance of each selected cut.
func selectionsWithReuse(app *ir.Application, o Options, cache *search.CostCache) ([]eval.Selection, error) {
	cfg := o.isegenConfig()
	var sels []eval.Selection
	claimer := eval.NewClaimer(app)
	r := &search.Runner{Workers: cfg.Workers, Cache: cache}
	_, _, err := r.GenerateContext(context.Background(), app, cfg, search.ReuseAware(app, o.Model, claimer),
		func(bi int, cut *core.Cut, excluded []*graph.BitSet) {
			sel := claimer.Claim(bi, cut, excluded)
			if len(sel.Instances) > 0 {
				sels = append(sels, sel)
			}
		})
	if err != nil {
		return nil, err
	}
	return sels, nil
}

// generateWithReuseRestarts is the restart-ablation pipeline: cuts are
// selected by merit only (no reuse-aware scoring), isolating the K-L
// search quality that the dispersed restarts exist to improve; reuse
// instances are still claimed for evaluation.
func generateWithReuseRestarts(app *ir.Application, o Options, restarts int, cache *search.CostCache) (*eval.Report, error) {
	cfg := o.isegenConfig()
	cfg.Restarts = restarts
	var sels []eval.Selection
	claimer := eval.NewClaimer(app)
	r := &search.Runner{Workers: cfg.Workers, Cache: cache}
	_, _, err := r.GenerateContext(context.Background(), app, cfg, search.Merit(o.Model),
		func(bi int, cut *core.Cut, excluded []*graph.BitSet) {
			sel := claimer.Claim(bi, cut, excluded)
			if len(sel.Instances) > 0 {
				sels = append(sels, sel)
			}
		})
	if err != nil {
		return nil, err
	}
	return eval.Evaluate(app, o.Model, sels)
}

// simOne produces one SimulationValidation row.
func simOne(name string, app *ir.Application, o Options) (SimRow, error) {
	sels, err := selectionsWithReuse(app, o, nil)
	if err != nil {
		return SimRow{}, err
	}
	rep, err := eval.Evaluate(app, o.Model, sels)
	if err != nil {
		return SimRow{}, err
	}
	instances := map[int][]*graph.BitSet{}
	for _, sel := range sels {
		for _, inst := range sel.Instances {
			instances[inst.BlockIdx] = append(instances[inst.BlockIdx], inst.Nodes)
		}
	}
	simRes, err := sim.RunApp(app, o.Model, instances)
	if err != nil {
		return SimRow{}, err
	}
	return SimRow{
		Benchmark: name,
		Estimated: rep.Speedup,
		Simulated: simRes.Speedup,
		RelErr:    eval.RelativeError(rep.Speedup, simRes.Speedup),
	}, nil
}
