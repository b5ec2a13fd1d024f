// Package experiments reproduces every table and figure of the paper's
// evaluation section:
//
//	Figure 4 (left):  speedup of Exact / Iterative / Genetic / ISEGEN on
//	                  seven EEMBC/MediaBench benchmarks at I/O (4,2), 4 AFUs
//	Figure 4 (right): ISE-generation runtime of the same four algorithms
//	Figure 6:         AES speedup, Genetic vs ISEGEN, sweeping I/O
//	                  constraints at NISE = 1 and NISE = 4
//	Figure 7:         reusability — instance count of each AES cut vs I/O
//
// plus the ablations motivated by Section 4 (gain-weight components, pass
// count, restarts) and the future-work experiments of Section 6
// (cycle-level simulation, code size and energy).
//
// Every harness drives the algorithms through the unified engine layer of
// internal/search — there are no per-algorithm driver loops here, and the
// ISEGEN-with-reuse flows call the root facade's one pipeline — and
// fans independent benchmark/configuration cells out across
// Options.Workers with a deterministic merge, so results are identical to
// a sequential run. The sweeps are not cancellable: they fan out under
// context.Background(), so Runner.ForEachContext's cancellation error
// cannot occur and is discarded.
// Every harness returns plain row structs and has a Print* companion that
// renders the same rows the paper plots.
package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	isegen "repro"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/ir"
	"repro/internal/kernels"
	"repro/internal/latency"
	"repro/internal/search"
)

// AlgoNames lists the four compared algorithms in the paper's legend order.
var AlgoNames = []string{"Exact", "Iterative", "Genetic", "ISEGEN"}

// Options configure a harness run.
type Options struct {
	MaxIn, MaxOut int
	NISE          int
	// ExactNodeLimit mirrors the paper: the joint Exact search handled
	// blocks of up to ~25 nodes. Default 25.
	ExactNodeLimit int
	// IterativeNodeLimit mirrors the paper: Iterative handled blocks of
	// up to ~96 nodes (so fft00's 104-node block fails). Default 100.
	IterativeNodeLimit int
	// Budget bounds the exact searches' explored nodes. Default 2e9.
	Budget int64
	// GASeed seeds the genetic baseline.
	GASeed int64
	// Workers bounds the harness fan-out (benchmark × configuration
	// cells) and the driver's K-L restart concurrency. 0 = one worker
	// per CPU core, 1 = fully sequential; results are identical.
	Workers int
	Model   *latency.Model
}

// DefaultOptions returns the paper's main configuration.
func DefaultOptions() Options {
	return Options{
		MaxIn: 4, MaxOut: 2, NISE: 4,
		ExactNodeLimit:     25,
		IterativeNodeLimit: 100,
		Budget:             search.DefaultBudget,
		GASeed:             1,
		Model:              latency.Default(),
	}
}

// runner builds the shared fan-out runner for one harness call. Harnesses
// that benefit from a shared cost cache (same blocks costed repeatedly
// across cells) attach one explicitly.
func (o Options) runner() *search.Runner {
	return &search.Runner{Workers: o.Workers}
}

// Fig4Row is one benchmark's outcome for both Figure 4 plots.
type Fig4Row struct {
	Benchmark string
	Nodes     int // critical-block size (paper's parenthesized number)
	// Speedup and Runtime are keyed by AlgoNames entries; a missing key
	// means the algorithm could not handle the benchmark and Note says
	// why (mirroring the bars absent from the paper's plot).
	Speedup map[string]float64
	Runtime map[string]time.Duration
	Note    map[string]string
}

// isegenConfig builds the core config for the options.
func (o Options) isegenConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.MaxIn, cfg.MaxOut, cfg.NISE = o.MaxIn, o.MaxOut, o.NISE
	cfg.Workers = o.Workers
	cfg.Model = o.Model
	return cfg
}

// limits builds the engine limits for the options; nodeLimit and budget
// only constrain the exact engines.
func (o Options) limits(nodeLimit int) *search.Limits {
	return &search.Limits{
		MaxIn: o.MaxIn, MaxOut: o.MaxOut, NISE: o.NISE,
		NodeLimit: nodeLimit, Budget: o.Budget,
		// Cells fan out across blocks; engines stay sequential inside a
		// cell so the Figure 4 runtime comparison measures the
		// algorithms, not the pool.
		Workers: 1,
	}
}

// fig4Cell is one algorithm column of Figure 4: a factory (so each sweep
// cell can get its own cost cache) plus the per-algorithm limits.
type fig4Cell struct {
	Name   string
	New    func(cache *search.CostCache) search.Engine
	Limits *search.Limits
}

// figure4Cells lists the paper's four algorithms in AlgoNames order.
func (o Options) figure4Cells() []fig4Cell {
	return []fig4Cell{
		{"Exact", func(c *search.CostCache) search.Engine { return &search.ExactJoint{Cache: c} }, o.limits(o.ExactNodeLimit)},
		{"Iterative", func(c *search.CostCache) search.Engine { return &search.ExactIterative{Cache: c} }, o.limits(o.IterativeNodeLimit)},
		{"Genetic", func(c *search.CostCache) search.Engine { return &search.Genetic{Seed: o.GASeed, Cache: c} }, o.limits(0)},
		{"ISEGEN", func(c *search.CostCache) search.Engine { return &search.KL{Cache: c} }, o.limits(0)},
	}
}

// speedupOf evaluates cuts without reuse (the Figure 4 protocol: all four
// algorithms are scored identically).
func speedupOf(app *ir.Application, model *latency.Model, cuts []*core.Cut) float64 {
	if len(cuts) == 0 {
		return 1
	}
	rep, err := eval.SpeedupOfCuts(app, model, cuts)
	if err != nil {
		return 1
	}
	return rep.Speedup
}

// Figure4 runs all four engines on the seven benchmarks: an embarrassingly
// parallel sweep over 28 benchmark × algorithm cells. Each cell gets a
// fresh cost cache, so no algorithm inherits warmth another one paid for
// and the Runtime column compares the algorithms themselves; run with
// Options.Workers = 1 when contention-free absolute runtimes matter.
func Figure4(o Options) []Fig4Row {
	specs := kernels.All()
	r := o.runner()
	cells := o.figure4Cells()
	obj := search.Merit(o.Model)

	type cellResult struct {
		speed float64
		dur   time.Duration
		note  string
		ok    bool
	}
	results := make([]cellResult, len(specs)*len(cells))
	_ = r.ForEachContext(context.Background(), len(results), func(i int) {
		spec := specs[i/len(cells)]
		cell := cells[i%len(cells)]
		eng := cell.New(search.NewCostCache())
		hot := spec.App.Blocks[0]
		cuts, stats, err := eng.RunContext(context.Background(), hot, obj, cell.Limits)
		if err != nil {
			results[i] = cellResult{note: shortErr(err)}
			return
		}
		results[i] = cellResult{
			speed: speedupOf(spec.App, o.Model, cuts),
			dur:   stats.Duration,
			ok:    true,
		}
	})

	rows := make([]Fig4Row, 0, len(specs))
	for si, spec := range specs {
		row := Fig4Row{
			Benchmark: spec.Name,
			Nodes:     spec.CriticalSize,
			Speedup:   map[string]float64{},
			Runtime:   map[string]time.Duration{},
			Note:      map[string]string{},
		}
		for ei, cell := range cells {
			res := results[si*len(cells)+ei]
			if !res.ok {
				row.Note[cell.Name] = res.note
				continue
			}
			row.Speedup[cell.Name] = res.speed
			row.Runtime[cell.Name] = res.dur
		}
		rows = append(rows, row)
	}
	return rows
}

func shortErr(err error) string {
	s := err.Error()
	if len(s) > 60 {
		s = s[:57] + "..."
	}
	return s
}

// PrintFigure4 renders both Figure 4 plots as tables.
func PrintFigure4(w io.Writer, rows []Fig4Row) {
	fmt.Fprintf(w, "Figure 4 (left): speedup, I/O (4,2), NISE = 4\n")
	fmt.Fprintf(w, "%-20s %8s %8s %8s %8s\n", "benchmark(n)", "Exact", "Iterat.", "Genetic", "ISEGEN")
	for _, r := range rows {
		fmt.Fprintf(w, "%-20s", fmt.Sprintf("%s(%d)", r.Benchmark, r.Nodes))
		for _, a := range AlgoNames {
			if v, ok := r.Speedup[a]; ok {
				fmt.Fprintf(w, " %8.3f", v)
			} else {
				fmt.Fprintf(w, " %8s", "-")
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "\nFigure 4 (right): ISE generation runtime (µs, log axis in the paper)\n")
	fmt.Fprintf(w, "%-20s %10s %10s %10s %10s\n", "benchmark(n)", "Exact", "Iterat.", "Genetic", "ISEGEN")
	for _, r := range rows {
		fmt.Fprintf(w, "%-20s", fmt.Sprintf("%s(%d)", r.Benchmark, r.Nodes))
		for _, a := range AlgoNames {
			if v, ok := r.Runtime[a]; ok {
				fmt.Fprintf(w, " %10d", v.Microseconds())
			} else {
				fmt.Fprintf(w, " %10s", "-")
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "('-' = algorithm cannot handle the block, as in the paper: ")
	fmt.Fprintf(w, "Exact is limited to ~25 nodes, Iterative to ~100.)\n")
}

// IOSweep is the I/O-constraint axis of Figures 6 and 7.
var IOSweep = [][2]int{{2, 1}, {3, 1}, {4, 1}, {4, 2}, {6, 3}, {8, 4}}

// Fig6Point is one x-position of a Figure 6 plot.
type Fig6Point struct {
	IO      [2]int
	Genetic float64
	ISEGEN  float64
}

// Figure6 sweeps the I/O constraints on AES with the given AFU budget,
// comparing the genetic baseline against ISEGEN; the six sweep points fan
// out across the worker pool. Both sides receive the identical reuse
// treatment (every isomorphic instance of each cut is claimed), so the
// difference isolates cut *quality*.
func Figure6(o Options, nise int) []Fig6Point {
	r := o.runner()
	r.Cache = search.NewCostCache()
	// One shared AES instance: blocks are immutable after construction,
	// and cut metrics are I/O-constraint-independent, so all sweep
	// cells (both the Genetic and the ISEGEN side) hit the same shared
	// cost-cache entries.
	app := kernels.AES()
	out := make([]Fig6Point, len(IOSweep))
	_ = r.ForEachContext(context.Background(), len(IOSweep), func(i int) {
		io := IOSweep[i]
		oo := o
		oo.MaxIn, oo.MaxOut, oo.NISE = io[0], io[1], nise
		oo.Workers = 1 // sweep cells already saturate the pool

		ga := &search.Genetic{Seed: oo.GASeed, Cache: r.Cache}
		gaCuts, _, err := ga.RunContext(context.Background(), app.Blocks[0], search.Merit(oo.Model), oo.limits(0))
		gaSpeed := 1.0
		if err == nil {
			sels := eval.ClaimAllWithReuse(app, gaCuts, func(*core.Cut) int { return 0 })
			if rep, err := eval.Evaluate(app, oo.Model, sels); err == nil {
				gaSpeed = rep.Speedup
			}
		}

		iseSpeed := 1.0
		if res, err := isegen.GenerateContext(context.Background(), app, oo.isegenConfig(), r.Cache); err == nil {
			iseSpeed = res.Report.Speedup
		}

		out[i] = Fig6Point{IO: io, Genetic: gaSpeed, ISEGEN: iseSpeed}
	})
	return out
}

// PrintFigure6 renders one Figure 6 plot.
func PrintFigure6(w io.Writer, nise int, pts []Fig6Point) {
	fmt.Fprintf(w, "Figure 6: AES(696) speedup, NISE = %d\n", nise)
	fmt.Fprintf(w, "%-8s %8s %8s\n", "I/O", "Genetic", "ISEGEN")
	for _, p := range pts {
		fmt.Fprintf(w, "(%d,%d)   %8.3f %8.3f\n", p.IO[0], p.IO[1], p.Genetic, p.ISEGEN)
	}
}

// Fig7Row reports, for one I/O constraint, the instance count of each cut
// ISEGEN selected on AES (CUT1..CUT4 in discovery order).
type Fig7Row struct {
	IO        [2]int
	CutSizes  []int
	Instances []int
}

// Figure7 reproduces the reusability study: how many instances each AES
// cut has under each I/O constraint (sweep points fan out in parallel).
func Figure7(o Options) []Fig7Row {
	r := o.runner()
	r.Cache = search.NewCostCache()
	app := kernels.AES()
	rows := make([]*Fig7Row, len(IOSweep))
	_ = r.ForEachContext(context.Background(), len(IOSweep), func(i int) {
		io := IOSweep[i]
		oo := o
		oo.MaxIn, oo.MaxOut = io[0], io[1]
		oo.Workers = 1 // sweep cells already saturate the pool
		res, err := isegen.GenerateContext(context.Background(), app, oo.isegenConfig(), r.Cache)
		if err != nil {
			return
		}
		row := &Fig7Row{IO: io}
		for _, sel := range res.Selections {
			row.CutSizes = append(row.CutSizes, sel.Cut.Size())
			row.Instances = append(row.Instances, len(sel.Instances))
		}
		rows[i] = row
	})
	out := make([]Fig7Row, 0, len(rows))
	for _, row := range rows {
		if row != nil {
			out = append(out, *row)
		}
	}
	return out
}

// PrintFigure7 renders the reusability table; each entry is
// cutsize×instances in discovery order (CUT1..CUT4).
func PrintFigure7(w io.Writer, rows []Fig7Row) {
	fmt.Fprintf(w, "Figure 7: reusability of cuts in AES (cutsize x instances, NISE = 4)\n")
	fmt.Fprintf(w, "%-8s %-10s %-10s %-10s %-10s\n", "I/O", "CUT1", "CUT2", "CUT3", "CUT4")
	for _, r := range rows {
		fmt.Fprintf(w, "(%d,%d)  ", r.IO[0], r.IO[1])
		for i := range r.CutSizes {
			fmt.Fprintf(w, " %-10s", fmt.Sprintf("%dx%d", r.CutSizes[i], r.Instances[i]))
		}
		fmt.Fprintln(w)
	}
}

// geoMean returns the geometric mean of xs.
func geoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// AblationRow reports the geometric-mean Figure 4 speedup of an ISEGEN
// variant across the seven benchmarks.
type AblationRow struct {
	Variant string
	GeoMean float64
}

// ablationSweep evaluates one ISEGEN config variant per entry across the
// Figure 4 suite (variant × benchmark cells fan out in parallel) and
// reports the per-variant geometric-mean speedup.
func ablationSweep(o Options, variants []string, mod func(i int, cfg *core.Config)) []AblationRow {
	specs := kernels.All()
	r := o.runner()
	// Cut metrics are independent of the config variants, so one cache
	// serves all variant × benchmark cells.
	r.Cache = search.NewCostCache()
	speeds := make([]float64, len(variants)*len(specs))
	_ = r.ForEachContext(context.Background(), len(speeds), func(i int) {
		vi, si := i/len(specs), i%len(specs)
		spec := specs[si]
		cfg := o.isegenConfig()
		cfg.Workers = 1 // cells already saturate the pool
		mod(vi, &cfg)
		inner := &search.Runner{Workers: 1, Cache: r.Cache}
		cuts, _, err := inner.GenerateContext(context.Background(), spec.App, cfg, search.Merit(o.Model), nil)
		if err != nil {
			speeds[i] = -1
			return
		}
		speeds[i] = speedupOf(spec.App, o.Model, cuts)
	})
	rows := make([]AblationRow, 0, len(variants))
	for vi, name := range variants {
		var ok []float64
		for si := range specs {
			if s := speeds[vi*len(specs)+si]; s > 0 {
				ok = append(ok, s)
			}
		}
		rows = append(rows, AblationRow{Variant: name, GeoMean: geoMean(ok)})
	}
	return rows
}

// AblationWeights zeroes each gain-function component in turn — the
// design-choice study for Section 4.2.
func AblationWeights(o Options) []AblationRow {
	mods := []func(*core.Weights){
		func(*core.Weights) {},
		func(w *core.Weights) { w.Merit = 0 },
		func(w *core.Weights) { w.IOPenalty = 0 },
		func(w *core.Weights) { w.Convexity = 0 },
		func(w *core.Weights) { w.LargeCut = 0 },
		func(w *core.Weights) { w.Independent = 0 },
	}
	names := []string{
		"full",
		"-merit (α1=0)",
		"-io-penalty (α2=0)",
		"-convexity (α3=0)",
		"-largecut (α4=0)",
		"-independent (α5=0)",
	}
	return ablationSweep(o, names, func(i int, cfg *core.Config) { mods[i](&cfg.Weights) })
}

// AblationPasses sweeps the K-L pass bound (the paper found 5 sufficient).
func AblationPasses(o Options) []AblationRow {
	passes := []int{1, 2, 3, 5, 8}
	names := make([]string, len(passes))
	for i, p := range passes {
		names[i] = fmt.Sprintf("passes=%d", p)
	}
	return ablationSweep(o, names, func(i int, cfg *core.Config) { cfg.MaxPasses = passes[i] })
}

// AblationRestarts sweeps the dispersed-restart count (our large-DFG
// extension; 1 = the paper's single-trajectory loop) on AES at (4,2).
func AblationRestarts(o Options) []AblationRow {
	restarts := []int{1, 2, 4, 8}
	r := o.runner()
	r.Cache = search.NewCostCache()
	app := kernels.AES()
	inner := o
	inner.Workers = 1 // variant cells already saturate the pool
	rows := make([]AblationRow, len(restarts))
	_ = r.ForEachContext(context.Background(), len(restarts), func(i int) {
		// Cuts are selected by merit only (no reuse-aware scoring),
		// isolating the K-L search quality that the dispersed restarts
		// exist to improve; reuse instances are still claimed for
		// evaluation.
		cfg := inner.isegenConfig()
		cfg.Restarts = restarts[i]
		speed := 1.0
		if res, err := isegen.GenerateWithObjectiveContext(context.Background(), app, cfg, "merit", isegen.ObjectiveParams{}, r.Cache); err == nil {
			speed = res.Report.Speedup
		}
		rows[i] = AblationRow{Variant: fmt.Sprintf("restarts=%d", restarts[i]), GeoMean: speed}
	})
	return rows
}

// PrintAblation renders an ablation table.
func PrintAblation(w io.Writer, title string, rows []AblationRow) {
	fmt.Fprintf(w, "%s\n%-22s %10s\n", title, "variant", "speedup")
	for _, r := range rows {
		fmt.Fprintf(w, "%-22s %10.3f\n", r.Variant, r.GeoMean)
	}
}

// SimRow compares the analytic speedup estimate with the cycle-level
// simulator for one benchmark (the Section 6 future-work deployment check).
type SimRow struct {
	Benchmark string
	Estimated float64
	Simulated float64
	RelErr    float64
}

// SimulationValidation runs ISEGEN with reuse on every benchmark (in
// parallel across benchmarks) and replays the result on the cycle-level
// core model.
func SimulationValidation(o Options) ([]SimRow, error) {
	specs := kernels.All()
	specs = append(specs, kernels.Spec{Name: "aes", App: kernels.AES(), CriticalSize: 696})
	rows := make([]SimRow, len(specs))
	errs := make([]error, len(specs))
	inner := o
	inner.Workers = 1 // benchmark cells already saturate the pool
	_ = o.runner().ForEachContext(context.Background(), len(specs), func(i int) {
		rows[i], errs[i] = simOne(specs[i].Name, specs[i].App, inner)
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("%s: %w", specs[i].Name, err)
		}
	}
	return rows, nil
}

// simOne produces one SimulationValidation row.
func simOne(name string, app *ir.Application, o Options) (SimRow, error) {
	res, err := isegen.GenerateContext(context.Background(), app, o.isegenConfig(), nil)
	if err != nil {
		return SimRow{}, err
	}
	simRes, err := isegen.Simulate(app, o.Model, res.Selections)
	if err != nil {
		return SimRow{}, err
	}
	return SimRow{
		Benchmark: name,
		Estimated: res.Report.Speedup,
		Simulated: simRes.Speedup,
		RelErr:    eval.RelativeError(res.Report.Speedup, simRes.Speedup),
	}, nil
}

// EnergyRow is the code-size / energy table (Section 6 future work).
type EnergyRow struct {
	Benchmark     string
	Speedup       float64
	CodeSizeRatio float64 // static instructions after / before
	EnergyRatio   float64 // energy after / before
}

// EnergyCodeSize evaluates ISEGEN's impact on static code size and energy
// (benchmarks fan out in parallel).
func EnergyCodeSize(o Options) ([]EnergyRow, error) {
	specs := kernels.All()
	specs = append(specs, kernels.Spec{Name: "aes", App: kernels.AES(), CriticalSize: 696})
	rows := make([]EnergyRow, len(specs))
	errs := make([]error, len(specs))
	inner := o
	inner.Workers = 1 // benchmark cells already saturate the pool
	_ = o.runner().ForEachContext(context.Background(), len(specs), func(i int) {
		spec := specs[i]
		res, err := isegen.GenerateContext(context.Background(), spec.App, inner.isegenConfig(), nil)
		if err != nil {
			errs[i] = err
			return
		}
		rep := res.Report
		rows[i] = EnergyRow{
			Benchmark:     spec.Name,
			Speedup:       rep.Speedup,
			CodeSizeRatio: float64(rep.StaticAfter) / float64(rep.StaticBefore),
			EnergyRatio:   rep.EnergyAfter / rep.EnergyBefore,
		}
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("%s: %w", specs[i].Name, err)
		}
	}
	return rows, nil
}

// PrintEnergy renders the energy/code-size table.
func PrintEnergy(w io.Writer, rows []EnergyRow) {
	fmt.Fprintf(w, "Future work (Section 6): code size and energy impact\n")
	fmt.Fprintf(w, "%-16s %8s %10s %10s\n", "benchmark", "speedup", "codesize", "energy")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %8.3f %9.1f%% %9.1f%%\n",
			r.Benchmark, r.Speedup, 100*r.CodeSizeRatio, 100*r.EnergyRatio)
	}
}

// PrintSim renders the simulation-validation table.
func PrintSim(w io.Writer, rows []SimRow) {
	fmt.Fprintf(w, "Cycle-level simulation vs analytic estimate (with reuse)\n")
	fmt.Fprintf(w, "%-16s %10s %10s %8s\n", "benchmark", "estimated", "simulated", "relerr")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %10.3f %10.3f %7.2f%%\n", r.Benchmark, r.Estimated, r.Simulated, 100*r.RelErr)
	}
}

// SortRowsByNodes orders Figure 4 rows like the paper (ascending block
// size); kernels.All already returns them sorted, this is a safety net for
// callers assembling rows themselves.
func SortRowsByNodes(rows []Fig4Row) {
	sort.Slice(rows, func(i, j int) bool { return rows[i].Nodes < rows[j].Nodes })
}
