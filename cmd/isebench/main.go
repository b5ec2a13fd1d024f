// Command isebench regenerates every table and figure of the paper's
// evaluation section, plus the ablation and future-work studies.
//
// Usage:
//
//	isebench            run everything
//	isebench -fig 4     only Figure 4 (speedup + runtime comparison)
//	isebench -fig 6     only Figure 6 (AES speedup sweep)
//	isebench -fig 7     only Figure 7 (AES cut reusability)
//	isebench -ablation  only the ablation studies
//	isebench -sim       only the cycle-level simulation validation
//	isebench -energy    only the code-size / energy table
//	isebench -area      only the AFU area-budget study
//	isebench -json      measure every suite of internal/benchsuite (the
//	                    Figure 4/6/7 workloads; ns/op, allocs/op, engine
//	                    work-counter deltas) and write BENCH_<rev>.json —
//	                    the repository's tracked perf trajectory; the
//	                    checked-in BENCH_baseline.json is one such file
//	isebench -diff BENCH_baseline.json BENCH_<rev>.json
//	                    gate a fresh measurement against the baseline:
//	                    exits non-zero when any suite's allocs/op regressed
//	                    (deterministic, so compared near-exactly; parallel
//	                    suites get a wider band for pool/scheduler noise),
//	                    warns when ns/op exceeds the -ns-tol ratio, and
//	                    warns when a work counter (exact_explored,
//	                    kl_toggles, ...) grows >10% even inside ns/op
//	                    tolerance
//
// All harnesses fan independent benchmark/configuration cells out across
// -workers (default: one per CPU core); results are bit-identical to a
// sequential run (-workers 1).
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
)

func main() {
	var (
		fig      = flag.Int("fig", 0, "run only the given figure (4, 6 or 7)")
		ablation = flag.Bool("ablation", false, "run only the ablation studies")
		simOnly  = flag.Bool("sim", false, "run only the simulation validation")
		energy   = flag.Bool("energy", false, "run only the code-size/energy table")
		area     = flag.Bool("area", false, "run only the AFU area-budget study")
		workers  = flag.Int("workers", 0, "worker pool size (0 = one per CPU core; results are identical)")
		jsonOut  = flag.Bool("json", false, "measure the Figure 4/6/7 benchmark suites (-benchtime=1x protocol) and write BENCH_<rev>.json instead of the tables")
		benchRev = flag.String("rev", "", "revision label for -json (default: the current git commit)")
		benchOut = flag.String("out", "", `output path for -json ("-" = stdout; default BENCH_<rev>.json)`)
		diffMode = flag.Bool("diff", false, "compare two BENCH json files (baseline fresh): exit non-zero on allocs/op regressions, warn on ns/op past -ns-tol")
		nsTol    = flag.Float64("ns-tol", 0.5, "ns/op warning tolerance for -diff as a ratio over baseline (0.5 = +50%)")
	)
	flag.Parse()
	if *diffMode {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "isebench: -diff needs two arguments: <baseline.json> <fresh.json>")
			os.Exit(2)
		}
		exitOn(runBenchDiff(flag.Arg(0), flag.Arg(1), *nsTol))
		return
	}
	if *jsonOut {
		exitOn(runBenchJSON(*benchRev, *benchOut))
		return
	}
	o := experiments.DefaultOptions()
	o.Workers = *workers
	all := *fig == 0 && !*ablation && !*simOnly && !*energy && !*area

	if all || *fig == 4 {
		rows := experiments.Figure4(o)
		experiments.PrintFigure4(os.Stdout, rows)
		fmt.Println()
	}
	if all || *fig == 6 {
		for _, nise := range []int{1, 4} {
			pts := experiments.Figure6(o, nise)
			experiments.PrintFigure6(os.Stdout, nise, pts)
			fmt.Println()
		}
	}
	if all || *fig == 7 {
		rows := experiments.Figure7(o)
		experiments.PrintFigure7(os.Stdout, rows)
		fmt.Println()
	}
	if all || *ablation {
		experiments.PrintAblation(os.Stdout, "Ablation: gain-function components (geomean over Fig. 4 suite)", experiments.AblationWeights(o))
		fmt.Println()
		experiments.PrintAblation(os.Stdout, "Ablation: K-L pass bound", experiments.AblationPasses(o))
		fmt.Println()
		experiments.PrintAblation(os.Stdout, "Ablation: dispersed restarts on AES (4,2)", experiments.AblationRestarts(o))
		fmt.Println()
	}
	if all || *simOnly {
		rows, err := experiments.SimulationValidation(o)
		exitOn(err)
		experiments.PrintSim(os.Stdout, rows)
		fmt.Println()
	}
	if all || *energy {
		rows, err := experiments.EnergyCodeSize(o)
		exitOn(err)
		experiments.PrintEnergy(os.Stdout, rows)
		fmt.Println()
	}
	if all || *area {
		rows, err := experiments.AreaStudy(o, experiments.DefaultAreaBudgets)
		exitOn(err)
		experiments.PrintAreaStudy(os.Stdout, rows)
	}
}

// exitOn reports a fatal error and exits non-zero; nil is a no-op.
func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "isebench:", err)
		os.Exit(1)
	}
}
