// Benchmark harness. BenchmarkSuites times the paper's Figure 4/6/7
// workloads from internal/benchsuite — the same closures, under the same
// names, that `isebench -json` measures into BENCH_<rev>.json — and
// reports each suite's quality number via b.ReportMetric. The remaining
// benchmarks cover the ablation and extension studies, whose tables are
// regenerated by `go run ./cmd/isebench`.
package isegen_test

import (
	"context"
	"testing"

	isegen "repro"
	"repro/internal/benchsuite"
	"repro/internal/experiments"
	"repro/internal/kernels"
)

// BenchmarkSuites runs every benchsuite entry as a sub-benchmark; select
// one with e.g. -bench 'Suites/figure6/aes/par'. Setup stays untimed.
func BenchmarkSuites(b *testing.B) {
	for _, s := range benchsuite.Suites() {
		b.Run(s.Name, func(b *testing.B) {
			run, err := s.Setup()
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			q := 0.0
			for i := 0; i < b.N; i++ {
				if q, err = run(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
			if s.Unit != "" {
				b.ReportMetric(q, s.Unit)
			}
		})
	}
}

// BenchmarkAblation measures the ablation studies: the gain-function
// components (Section 4.2), the K-L pass bound ("5 passes are enough",
// Section 4.1) and the dispersed restarts. `isebench -ablation` prints
// their speedup tables.
func BenchmarkAblation(b *testing.B) {
	o := experiments.DefaultOptions()
	studies := []func(experiments.Options) []experiments.AblationRow{
		experiments.AblationWeights, experiments.AblationPasses, experiments.AblationRestarts,
	}
	for i, name := range []string{"weights", "passes", "restarts"} {
		b.Run(name, func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				studies[i](o)
			}
		})
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

// BenchmarkAreaKnapsack measures the area-budget selection extension
// (cmd/isebench -area) on the AES candidate pool.
func BenchmarkAreaKnapsack(b *testing.B) {
	app := kernels.AES()
	model := isegen.DefaultModel()
	cfg := isegen.DefaultConfig()
	cfg.NISE = 8
	res, err := isegen.Generate(app, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	kept := 0
	for i := 0; i < b.N; i++ {
		kept = len(isegen.SelectUnderAreaBudget(app, model, res.Selections, 8000))
	}
	b.ReportMetric(float64(kept), "afus-kept")
}

// BenchmarkHWGenAES measures Verilog AFU generation for every ISE ISEGEN
// selects on AES.
func BenchmarkHWGenAES(b *testing.B) {
	app := kernels.AES()
	model := isegen.DefaultModel()
	res, err := isegen.Generate(app, isegen.DefaultConfig())
	if err != nil || len(res.Selections) == 0 {
		b.Fatalf("generate: %v", err)
	}
	b.ResetTimer()
	bytesOut := 0
	for i := 0; i < b.N; i++ {
		bytesOut = 0
		for _, sel := range res.Selections {
			mod, err := isegen.GenerateAFU(sel.Cut.Block, sel.Cut.Nodes, model, "afu")
			if err != nil {
				b.Fatal(err)
			}
			bytesOut += len(mod.Verilog())
		}
	}
	b.ReportMetric(float64(bytesOut), "verilog-bytes")
}
