// Benchmark harness: one testing.B benchmark per table/figure of the
// paper's evaluation. The numeric series themselves are regenerated by
// `go run ./cmd/isebench`; the benchmarks here measure the computational
// cost of each experiment's algorithm and report the headline quality
// metric via b.ReportMetric, so `go test -bench=. -benchmem` exercises
// every experiment end to end. The *Sequential/*Parallel pairs expose the
// speedup of the search layer's worker-pool fan-out (identical results,
// different wall-clock).
package isegen_test

import (
	"context"
	"testing"

	isegen "repro"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/exact"
	"repro/internal/experiments"
	"repro/internal/genetic"
	"repro/internal/kernels"
	"repro/internal/latency"
	"repro/internal/search"
)

// benchFigure4Suite runs the unified K-L driver (cuts only, the Figure 4
// protocol) over the seven-benchmark suite with the given worker count.
func benchFigure4Suite(b *testing.B, workers int) {
	specs := kernels.All()
	model := latency.Default()
	speed := 0.0
	for i := 0; i < b.N; i++ {
		speed = 0
		r := &search.Runner{Workers: workers, Cache: search.NewCostCache()}
		for _, spec := range specs {
			cfg := core.DefaultConfig()
			cuts, _, err := r.GenerateContext(context.Background(), spec.App, cfg, search.Merit(model), nil)
			if err != nil {
				b.Fatal(err)
			}
			rep, err := eval.SpeedupOfCuts(spec.App, model, cuts)
			if err != nil {
				b.Fatal(err)
			}
			speed += rep.Speedup
		}
	}
	b.ReportMetric(speed/float64(len(specs)), "mean-speedup")
}

// BenchmarkFigure4ISEGEN runs ISEGEN (the paper's contribution) over the
// whole Figure 4 suite: seven benchmarks, I/O (4,2), 4 AFUs (sequential
// reference path).
func BenchmarkFigure4ISEGEN(b *testing.B) { benchFigure4Suite(b, 1) }

// BenchmarkFigure4ISEGENParallel is the same suite with restart
// trajectories fanned out across all cores — bit-identical results.
func BenchmarkFigure4ISEGENParallel(b *testing.B) { benchFigure4Suite(b, 0) }

// BenchmarkFigure4Genetic runs the DAC'04 genetic baseline over the same
// suite (the runtime ratio against BenchmarkFigure4ISEGEN is the paper's
// Figure 4 right-hand plot).
func BenchmarkFigure4Genetic(b *testing.B) {
	specs := kernels.All()
	for i := 0; i < b.N; i++ {
		for _, spec := range specs {
			opt := genetic.Options{MaxIn: 4, MaxOut: 2, Model: latency.Default(), Seed: 1}
			if _, err := genetic.Iterative(spec.App.Blocks[0], opt, 4); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchFigure4Iterative runs the exact iterative single-cut baseline on
// every block it can handle (≤ 100 nodes, as in the paper), with the
// given in-block subtree worker setting.
func benchFigure4Iterative(b *testing.B, subtreeWorkers int) {
	specs := kernels.All()
	for i := 0; i < b.N; i++ {
		for _, spec := range specs {
			if spec.CriticalSize > 100 {
				continue
			}
			opt := exact.Options{MaxIn: 4, MaxOut: 2, Model: latency.Default(), Budget: 2_000_000_000, Workers: subtreeWorkers}
			if _, err := exact.IterativeContext(context.Background(), spec.App.Blocks[0], opt, 4); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFigure4Iterative is the single-threaded branch-and-bound
// reference path.
func BenchmarkFigure4Iterative(b *testing.B) { benchFigure4Iterative(b, 0) }

// BenchmarkFigure4IterativeParallel fans the branch-and-bound out inside
// each block (one subtree worker per core, shared best-bound) —
// bit-identical cuts, different wall-clock on multi-core hosts.
func BenchmarkFigure4IterativeParallel(b *testing.B) { benchFigure4Iterative(b, -1) }

// benchFigure4Exact runs the exact joint multi-cut baseline on the blocks
// it can handle (≤ 25 nodes, as in the paper).
func benchFigure4Exact(b *testing.B, subtreeWorkers int) {
	specs := kernels.All()
	for i := 0; i < b.N; i++ {
		for _, spec := range specs {
			if spec.CriticalSize > 25 {
				continue
			}
			opt := exact.Options{MaxIn: 4, MaxOut: 2, Model: latency.Default(), Budget: 2_000_000_000, Workers: subtreeWorkers}
			if _, err := exact.MultiCutContext(context.Background(), spec.App.Blocks[0], opt, 4); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFigure4Exact is the single-threaded joint search.
func BenchmarkFigure4Exact(b *testing.B) { benchFigure4Exact(b, 0) }

// BenchmarkFigure4ExactParallel is the same joint search on the in-block
// subtree pool — bit-identical cuts.
func BenchmarkFigure4ExactParallel(b *testing.B) { benchFigure4Exact(b, -1) }

// benchGenerateAES runs the full ISEGEN-with-reuse pipeline on AES at the
// paper's central (4,2) point with 4 AFUs and the given worker count.
func benchGenerateAES(b *testing.B, workers int) {
	speed := 0.0
	for i := 0; i < b.N; i++ {
		app := kernels.AES()
		cfg := isegen.DefaultConfig()
		cfg.Workers = workers
		res, err := isegen.Generate(app, cfg)
		if err != nil {
			b.Fatal(err)
		}
		speed = res.Report.Speedup
	}
	b.ReportMetric(speed, "speedup")
}

// BenchmarkFigure6AES runs the full ISEGEN-with-reuse pipeline on AES at
// the paper's central (4,2) point with 4 AFUs (one x-position of Figure 6
// right; cmd/isebench sweeps all six). Sequential reference path.
func BenchmarkFigure6AES(b *testing.B) { benchGenerateAES(b, 1) }

// BenchmarkFigure6AESParallel is the same pipeline with the K-L restart
// trajectories fanned out across all cores. The Selections and Report are
// bit-identical to the sequential run; only wall-clock changes — the
// ratio of these two benchmarks is the restart-fan-out speedup.
func BenchmarkFigure6AESParallel(b *testing.B) { benchGenerateAES(b, 0) }

// BenchmarkFigure6AESGenetic is the genetic side of the same Figure 6
// point, with identical reuse treatment.
func BenchmarkFigure6AESGenetic(b *testing.B) {
	speed := 0.0
	for i := 0; i < b.N; i++ {
		app := kernels.AES()
		opt := genetic.Options{MaxIn: 4, MaxOut: 2, Model: latency.Default(), Seed: 1}
		cuts, err := genetic.Iterative(app.Blocks[0], opt, 4)
		if err != nil {
			b.Fatal(err)
		}
		sels := eval.ClaimAllWithReuse(app, cuts, func(*core.Cut) int { return 0 })
		rep, err := eval.Evaluate(app, latency.Default(), sels)
		if err != nil {
			b.Fatal(err)
		}
		speed = rep.Speedup
	}
	b.ReportMetric(speed, "speedup")
}

// BenchmarkFigure7Reuse measures the instance matcher on AES: find every
// occurrence of the xtime cut ISEGEN selects under (2,1) — the engine
// behind the Figure 7 reusability counts.
func BenchmarkFigure7Reuse(b *testing.B) {
	app := kernels.AES()
	cfg := isegen.DefaultConfig()
	cfg.MaxIn, cfg.MaxOut, cfg.NISE = 2, 1, 1
	cuts, err := isegen.GenerateCutsOnly(app, cfg)
	if err != nil || len(cuts) == 0 {
		b.Fatalf("no cut: %v", err)
	}
	b.ResetTimer()
	insts := 0
	for i := 0; i < b.N; i++ {
		insts = len(isegen.FindInstances(app, 0, cuts[0].Nodes, 0))
	}
	b.ReportMetric(float64(insts), "instances")
}

// BenchmarkAblationWeights measures the gain-component ablation study
// (design choices of Section 4.2).
func BenchmarkAblationWeights(b *testing.B) {
	o := experiments.DefaultOptions()
	full := 0.0
	for i := 0; i < b.N; i++ {
		rows := experiments.AblationWeights(o)
		full = rows[0].GeoMean
	}
	b.ReportMetric(full, "geomean-speedup")
}

// BenchmarkAblationPasses measures the K-L pass-count study ("5 passes are
// enough", Section 4.1).
func BenchmarkAblationPasses(b *testing.B) {
	o := experiments.DefaultOptions()
	for i := 0; i < b.N; i++ {
		experiments.AblationPasses(o)
	}
}

// BenchmarkSimValidation measures the cycle-level deployment check
// (Section 6 future work): ISEGEN + reuse + simulator on all benchmarks.
func BenchmarkSimValidation(b *testing.B) {
	o := experiments.DefaultOptions()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.SimulationValidation(o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKLBipartitionAES isolates the core contribution: one full K-L
// bi-partition of the 696-node AES block (the workload the exact
// approaches cannot handle).
func BenchmarkKLBipartitionAES(b *testing.B) {
	app := kernels.AES()
	cfg := core.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := core.NewEngine(app.Blocks[0], cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		if eng.Bipartition() == nil {
			b.Fatal("no cut on AES")
		}
	}
}
