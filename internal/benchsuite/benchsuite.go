// Package benchsuite is the one definition of the measured workloads of
// the paper's evaluation: the Figure 4 runtime comparison (ISEGEN against
// the genetic, iterative, exact and racing engines on the kernel suite),
// the Figure 6 AES pipeline, the Figure 7 reuse matcher and the isolated
// AES K-L bi-partition. `go test -bench Suites` (root bench_test.go) and
// `isebench -json` both iterate Suites, so the two harnesses time the same
// closures under the same names — the names BENCH_baseline.json keys on.
package benchsuite

import (
	"context"
	"errors"
	"math"

	isegen "repro"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/exact"
	"repro/internal/genetic"
	"repro/internal/ir"
	"repro/internal/kernels"
	"repro/internal/latency"
	"repro/internal/search"
)

// Run is one timed execution of a suite. It returns the suite's quality
// number (see Suite.Unit), or 0 when the suite reports none. The context
// carries the harness's recorder, if any.
type Run func(ctx context.Context) (float64, error)

// Suite is one named workload.
type Suite struct {
	Name string
	// Unit names the quality number Run returns; "" means none.
	Unit string
	// Setup does the untimed preparation and returns the timed Run.
	Setup func() (Run, error)
}

// Suites returns the table. The sequential / parallel pairs expose the
// fan-out speedup on multi-core hosts; their results are bit-identical.
func Suites() []Suite {
	return []Suite{
		{Name: "figure4/isegen/seq", Setup: ready(fig4KL(1))},
		{Name: "figure4/isegen/par", Setup: ready(fig4KL(0))},
		{Name: "figure4/genetic", Setup: ready(fig4Genetic)},
		{Name: "figure4/iterative/seq", Setup: ready(fig4Exact(exact.IterativeContext, 100, 0))},
		{Name: "figure4/iterative/par", Setup: ready(fig4Exact(exact.IterativeContext, 100, -1))},
		{Name: "figure4/exact/seq", Setup: ready(fig4Exact(exact.MultiCutContext, 25, 0))},
		{Name: "figure4/exact/par", Setup: ready(fig4Exact(exact.MultiCutContext, 25, -1))},
		{Name: "figure4/racing/seq", Setup: ready(fig4Racing(1, 0))},
		{Name: "figure4/racing/par", Setup: ready(fig4Racing(0, -1))},
		{Name: "figure6/aes/seq", Unit: "speedup", Setup: ready(fig6AES(1))},
		{Name: "figure6/aes/par", Unit: "speedup", Setup: ready(fig6AES(0))},
		{Name: "figure6/aes/genetic", Unit: "speedup", Setup: ready(fig6Genetic)},
		{Name: "figure7/reuse", Unit: "instances", Setup: fig7Reuse},
		{Name: "kl/bipartition/aes", Setup: klBipartitionAES},
	}
}

// ready wraps a Run that needs no preparation.
func ready(run Run) func() (Run, error) {
	return func() (Run, error) { return run, nil }
}

// fig4KL runs the unified K-L driver (cuts only, the Figure 4 protocol)
// over the seven-benchmark suite with the given worker count.
func fig4KL(workers int) Run {
	model := latency.Default()
	return func(ctx context.Context) (float64, error) {
		r := &search.Runner{Workers: workers, Cache: search.NewCostCache()}
		for _, spec := range kernels.All() {
			if _, _, err := r.GenerateContext(ctx, spec.App, core.DefaultConfig(), search.Merit(model), nil); err != nil {
				return 0, err
			}
		}
		return 0, nil
	}
}

// fig4Blocks runs solve on the critical block of every Figure 4 kernel
// with at most maxSize nodes: the paper's limits are 100 for the
// iterative and 25 for the joint exact search.
func fig4Blocks(maxSize int, solve func(context.Context, *ir.Block) error) Run {
	return func(ctx context.Context) (float64, error) {
		for _, spec := range kernels.All() {
			if spec.CriticalSize > maxSize {
				continue
			}
			if err := solve(ctx, spec.App.Blocks[0]); err != nil {
				return 0, err
			}
		}
		return 0, nil
	}
}

// fig4Genetic runs the DAC'04 genetic baseline over the whole suite.
var fig4Genetic = fig4Blocks(math.MaxInt, func(_ context.Context, blk *ir.Block) error {
	opt := genetic.Options{MaxIn: 4, MaxOut: 2, Model: latency.Default(), Seed: 1}
	_, err := genetic.Iterative(blk, opt, 4)
	return err
})

// fig4Exact runs an exact baseline (iterative or joint) with the given
// in-block subtree worker setting.
func fig4Exact(solve func(context.Context, *ir.Block, exact.Options, int) ([]*core.Cut, error), maxSize, subtreeWorkers int) Run {
	opt := exact.Options{MaxIn: 4, MaxOut: 2, Model: latency.Default(), Budget: search.DefaultBudget, Workers: subtreeWorkers}
	return fig4Blocks(maxSize, func(ctx context.Context, blk *ir.Block) error {
		_, err := solve(ctx, blk, opt, 4)
		return err
	})
}

// fig4Racing covers exactly the joint exact suite's kernels, so the pair
// is directly comparable: same blocks, same optimal answers, the racing
// suite measuring how much the K-L-seeded bound prunes the proof.
func fig4Racing(klWorkers, subtreeWorkers int) Run {
	obj := search.Merit(latency.Default())
	lim := search.Limits{
		MaxIn: 4, MaxOut: 2, NISE: 4, Budget: search.DefaultBudget,
		Workers: klWorkers, SubtreeWorkers: subtreeWorkers,
	}
	return fig4Blocks(25, func(ctx context.Context, blk *ir.Block) error {
		eng := &search.Racing{Cache: search.NewCostCache()}
		_, _, err := eng.RunContext(ctx, blk, obj, &lim)
		return err
	})
}

// fig6AES runs the full ISEGEN-with-reuse pipeline on AES at the paper's
// central (4,2) point with 4 AFUs (one x-position of Figure 6 right).
func fig6AES(workers int) Run {
	return func(ctx context.Context) (float64, error) {
		cfg := isegen.DefaultConfig()
		cfg.Workers = workers
		res, err := isegen.GenerateContext(ctx, kernels.AES(), cfg, nil)
		if err != nil {
			return 0, err
		}
		return res.Report.Speedup, nil
	}
}

// fig6Genetic is the genetic side of the same Figure 6 point, with
// identical reuse treatment.
func fig6Genetic(context.Context) (float64, error) {
	app := kernels.AES()
	opt := genetic.Options{MaxIn: 4, MaxOut: 2, Model: latency.Default(), Seed: 1}
	cuts, err := genetic.Iterative(app.Blocks[0], opt, 4)
	if err != nil {
		return 0, err
	}
	sels := eval.ClaimAllWithReuse(app, cuts, func(*core.Cut) int { return 0 })
	rep, err := eval.Evaluate(app, latency.Default(), sels)
	if err != nil {
		return 0, err
	}
	return rep.Speedup, nil
}

// fig7Reuse measures the instance matcher behind the Figure 7
// reusability counts: the xtime cut ISEGEN selects on AES under (2,1) is
// found during setup, and the run finds its occurrences across AES.
func fig7Reuse() (Run, error) {
	app := kernels.AES()
	cfg := isegen.DefaultConfig()
	cfg.MaxIn, cfg.MaxOut, cfg.NISE = 2, 1, 1
	cuts, err := isegen.GenerateCutsOnly(app, cfg)
	if err != nil {
		return nil, err
	}
	if len(cuts) == 0 {
		return nil, errors.New("figure7/reuse: no cut on AES under (2,1)")
	}
	return func(context.Context) (float64, error) {
		return float64(len(isegen.FindInstances(app, 0, cuts[0].Nodes, 0))), nil
	}, nil
}

// klBipartitionAES isolates the core contribution: one full K-L
// bi-partition of the 696-node AES block, the workload the exact
// approaches cannot handle. Loading AES is setup.
func klBipartitionAES() (Run, error) {
	blk := kernels.AES().Blocks[0]
	return func(context.Context) (float64, error) {
		eng, err := core.NewEngine(blk, core.DefaultConfig(), nil)
		if err != nil {
			return 0, err
		}
		if eng.Bipartition() == nil {
			return 0, errors.New("kl/bipartition/aes: no cut")
		}
		return 0, nil
	}, nil
}
