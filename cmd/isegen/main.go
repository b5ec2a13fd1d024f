// Command isegen identifies Instruction Set Extensions in .dfg files.
//
// Usage:
//
//	isegen [flags] file.dfg
//
// The input may contain several blocks (an application). Results are
// printed per cut with node sets, I/O counts, merits and claimed instance
// counts, followed by the whole-application report.
//
// Flags select the algorithm (-algo isegen|genetic|exact|iterative|racing
// — any name in the unified search-engine registry), the objective
// (-objective merit|reuse|area|energy|latency|class|pareto — any name in
// the objective registry; -gate-penalty, -latency-budget, -class-weights
// and -max-frontier parameterize it), the port constraints (-in, -out),
// the AFU budget (-nise), the worker-pool size (-workers), the exact
// engines' in-block branch-and-bound pool (-subtree-workers; results are
// bit-identical for every value) and optional DOT output
// highlighting the cuts (-dot file).
//
// -algo racing races K-L and the genetic baseline against the exact
// engine per block: each heuristic answer seeds the exact search's
// best-bound, and the proven optimum (the same bits -algo exact produces)
// replaces them when the proof lands; whether it also lands sooner than
// -algo exact alone varies by host and run. With -json the stream
// additionally carries "frontier" records marked anytime/optimal as each
// racer publishes. -deadline bounds each block's race wall-clock — on
// expiry the best anytime answer so far is returned without an error
// (racing only; timing-dependent by construction).
//
// Both output modes are renderings of one internal/service.Run stream.
// The ISEGEN flow selects across the whole application; the baselines
// (exact, iterative, genetic, racing) run on every block with the AFU
// budget applied per block, and a block over the engine's node limit is
// skipped with a note on stderr. The baselines optimize merit internally
// and accept only -objective merit; every other objective requires
// -algo isegen. Invalid pairs are rejected up front with the full list of
// valid combinations. With -objective pareto, selection is by Pareto
// dominance over (merit, area, energy) and the run additionally prints
// the non-dominated frontier.
//
// -json switches to the machine-readable NDJSON result stream — the same
// schema and byte-for-byte output as the isegend service, so offline and
// served runs are diffable. An explicit -objective extends each selection
// record with its objective vector; -objective pareto adds a "frontier"
// record. Without -objective the stream is bit-identical to the
// pre-objective schema.
// -cache-dir persists cut costings across runs (keyed by canonical block
// hash), making repeated sweeps over the same file near-free.
//
// -trace file.ndjson records the run's span tree (job → block → engine →
// trajectory/subtree, monotonic timestamps, parent links) plus the
// engine-internal counters and writes them as NDJSON; -summary prints a
// human-readable per-kind/per-counter table to stderr instead of (or in
// addition to) the file. Recording never changes the result stream — the
// NDJSON output is byte-identical with and without -trace.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	isegen "repro"
	"repro/internal/obs"
	"repro/internal/service"
)

func main() { os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr)) }

// cli runs isegen with the given arguments and returns the exit status:
// 0 on success, 1 when the run fails, 2 on a usage error.
func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		algo      = fs.String("algo", "isegen", "algorithm: "+strings.Join(isegen.SearchEngineNames(), ", "))
		objective = fs.String("objective", "", "objective: "+strings.Join(isegen.ObjectiveNames(), ", ")+
			" (default: reuse-aware scoring, merit with -noreuse; non-merit objectives require -algo isegen)")
		gatePenalty = fs.Float64("gate-penalty", 0, "area objective: merit discount per NAND2 gate (0 = default)")
		latBudget   = fs.Int("latency-budget", 0, "latency objective: max AFU cycles per ISE (required with -objective latency)")
		classWts    = fs.String("class-weights", "", `class objective: comma-separated class=weight list, e.g. "memory=0.5,compute=2"`)
		maxFrontier = fs.Int("max-frontier", 0, "pareto objective: bound on retained frontier points (0 = unbounded; deterministic eviction)")
		maxIn       = fs.Int("in", 4, "maximum ISE input operands")
		maxOut      = fs.Int("out", 2, "maximum ISE output operands")
		nise        = fs.Int("nise", 4, "maximum number of ISEs (AFUs)")
		seed        = fs.Int64("seed", 1, "random seed for the genetic algorithm")
		workers     = fs.Int("workers", 0, "worker pool size (0 = one per CPU core; results are identical)")
		subWorkers  = fs.Int("subtree-workers", 0, "exact engines: in-block branch-and-bound workers (0/1 = single-threaded, -1 = one per CPU core; in-budget runs are identical)")
		deadline    = fs.Duration("deadline", 0, "racing engine: per-block wall-clock bound (e.g. 200ms; 0 = none) — on expiry the best anytime answer so far is returned instead of the proven optimum")
		dotFile     = fs.String("dot", "", "write a Graphviz rendering of the first block with cuts highlighted")
		noReuse     = fs.Bool("noreuse", false, "disable reuse matching (each cut counts once)")
		jsonOut     = fs.Bool("json", false, "emit the NDJSON result stream (same schema and bytes as the isegend service)")
		cacheDir    = fs.String("cache-dir", "", "persist cut costings under this directory across runs")
		traceFile   = fs.String("trace", "", "record the run's span trace and counters as NDJSON to this file")
		traceSum    = fs.Bool("summary", false, "print a human-readable span/counter summary to stderr (implies recording)")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: isegen [flags] file.dfg")
		fs.Usage()
		return 2
	}
	weights, err := service.ParseClassWeights(*classWts)
	if err != nil {
		fmt.Fprintln(stderr, "isegen:", err)
		return 2
	}
	p := service.Params{
		Algo: *algo, MaxIn: *maxIn, MaxOut: *maxOut, NISE: *nise,
		Seed: *seed, Workers: *workers, Reuse: !*noReuse,
		SubtreeWorkers: *subWorkers, Deadline: *deadline,
		Objective: *objective, GatePenalty: *gatePenalty,
		LatencyBudget: *latBudget, ClassWeights: weights,
		MaxFrontier: *maxFrontier,
	}
	// Validate the full parameter set up front — in particular the
	// objective/engine pairing, so an unsupported combination is one
	// clear usage error listing the valid pairs instead of a rejection
	// from deep inside an engine.
	if err := p.Validate(); err != nil {
		fmt.Fprintln(stderr, "isegen:", err)
		return 2
	}
	// Recording is attached through the context; the engines see the same
	// code path either way (nil-recorder methods are no-ops), so -trace
	// cannot perturb the result bytes.
	ctx := context.Background()
	var rec *obs.Recorder
	var jobSpan obs.SpanID
	if *traceFile != "" || *traceSum {
		rec = obs.NewRecorder(obs.DefaultSpanCap)
		jobSpan = rec.Start(0, obs.KindJob, p.Algo)
		ctx = obs.WithParentSpan(obs.WithRecorder(ctx, rec), jobSpan)
	}
	if *jsonOut && *dotFile != "" {
		fmt.Fprintln(stderr, "isegen: -dot is not supported with -json (the NDJSON stream carries no render); drop one of the two flags")
		return 2
	}
	err = run(ctx, fs.Arg(0), p, *jsonOut, *dotFile, *cacheDir, stdout, stderr)
	if rec != nil {
		rec.End(jobSpan)
		if terr := writeTrace(rec, *traceFile); terr != nil && err == nil {
			err = terr
		}
		if *traceSum {
			rec.WriteSummary(stderr)
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "isegen:", err)
		return 1
	}
	return 0
}

// writeTrace dumps the recorded span tree and counters as NDJSON.
func writeTrace(rec *obs.Recorder, path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteSpans(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// openCache builds the run's cut-costing cache: disk-persistent when
// cacheDir is set (content-hash-keyed, flushed by the caller), otherwise
// a plain in-memory cache.
func openCache(cacheDir string) (*isegen.CostCache, error) {
	if cacheDir == "" {
		return isegen.NewCostCache(), nil
	}
	store, err := isegen.NewCostCacheStore(cacheDir, 0)
	if err != nil {
		return nil, err
	}
	return isegen.NewPersistentCostCache(store), nil
}

// run parses the application and drives service.Run, the one execution
// path of both output modes: -json encodes the records as NDJSON (exactly
// what the isegend daemon serves, so the outputs diff clean), the default
// mode renders them as text. With -cache-dir the cut-costing cache is
// loaded from and flushed back to disk, so a repeated run skips costing
// entirely.
func run(ctx context.Context, path string, p service.Params, jsonOut bool, dotFile, cacheDir string, stdout, stderr io.Writer) (err error) {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	// The application name is not part of the result stream, so the
	// upload name used by the service and the file path used here cannot
	// break the determinism contract.
	app, err := isegen.ParseApplication(path, f)
	if err != nil {
		return err
	}
	cache, err := openCache(cacheDir)
	if err != nil {
		return err
	}
	// Flush on every outcome: costings computed before a late failure
	// are still worth persisting for the next run.
	defer func() {
		if ferr := cache.Flush(); ferr != nil && err == nil {
			err = ferr
		}
	}()
	if jsonOut {
		return service.Run(ctx, app, p, cache, service.NDJSONEmitter(stdout))
	}
	rep := &textReport{app: app, out: stdout, errOut: stderr}
	if err := service.Run(ctx, app, p, cache, rep.emit); err != nil {
		return err
	}
	if dotFile == "" {
		return nil
	}
	df, err := os.Create(dotFile)
	if err != nil {
		return err
	}
	if err := isegen.WriteDOT(df, app.Blocks[0], rep.block0); err != nil {
		df.Close()
		return err
	}
	if err := df.Close(); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "wrote", dotFile)
	return nil
}

// textReport renders the service.Run record stream as the human-readable
// report: every selection in ISE order, then the Pareto frontier when the
// job has one, then the application line. Racing's in-flight frontier
// records are not part of the report; each skipped block gets one stderr
// line.
type textReport struct {
	app         *isegen.Application
	out, errOut io.Writer
	sels        []blockSelection
	// block0 holds block 0's selections, the cuts -dot highlights.
	block0 []*isegen.BitSet
}

// blockSelection is one buffered selection with the block it was
// identified in.
type blockSelection struct {
	block int
	sel   service.Selection
}

func (t *textReport) emit(v any) error {
	switch r := v.(type) {
	case *service.BlockResult:
		if r.Skipped != "" {
			fmt.Fprintf(t.errOut, "isegen: skipped block %d (%s): %s\n", r.Block, r.Name, r.Skipped)
		}
		for _, sel := range r.Selections {
			t.sels = append(t.sels, blockSelection{r.Block, sel})
			if r.Block == 0 {
				t.block0 = append(t.block0, t.nodeSet(0, sel.Nodes))
			}
		}
	case *service.FrontierRecord:
		t.printSelections()
		fmt.Fprintf(t.out, "pareto frontier: %d non-dominated candidates (merit max, area min, energy max; * = selected)\n", len(r.Points))
		for _, pt := range r.Points {
			mark := " "
			if pt.Selected {
				mark = "*"
			}
			fmt.Fprintf(t.out, " %s block %d nodes %v: %s\n", mark, pt.Block, t.nodeSet(pt.Block, pt.Nodes), vector(pt.Objectives))
		}
	case *service.Summary:
		t.printSelections()
		fmt.Fprintf(t.out, "application: speedup %.3f, coverage %.1f%%, code size %d -> %d, energy %.1f%%\n",
			r.Speedup, 100*r.Coverage, r.StaticBefore, r.StaticAfter, 100*r.EnergyRatio)
	}
	return nil
}

// printSelections prints the buffered selections in ISE order (the block
// records group them by block) and empties the buffer.
func (t *textReport) printSelections() {
	slices.SortFunc(t.sels, func(a, b blockSelection) int { return a.sel.ISE - b.sel.ISE })
	for _, bs := range t.sels {
		sel := bs.sel
		fmt.Fprintf(t.out, "ISE %d: block %q nodes %v\n", sel.ISE, t.app.Blocks[bs.block].Name, t.nodeSet(bs.block, sel.Nodes))
		fmt.Fprintf(t.out, "  io (%d,%d), swlat %d, afu cycles %d, merit %.0f, instances %d\n",
			sel.NumIn, sel.NumOut, sel.SWLat, sel.HWCycles, sel.Merit, len(sel.Instances))
		if sel.Objectives != nil {
			fmt.Fprintf(t.out, "  objectives: %s\n", vector(*sel.Objectives))
		}
	}
	t.sels = nil
}

// nodeSet rebuilds a record's node list as a node set of block bi.
func (t *textReport) nodeSet(bi int, nodes []int) *isegen.BitSet {
	set := isegen.NewBitSet(t.app.Blocks[bi].N())
	for _, v := range nodes {
		set.Set(v)
	}
	return set
}

func vector(v service.ObjectiveVector) isegen.ObjectiveVector {
	return isegen.ObjectiveVector{Merit: v.Merit, Area: v.Area, Energy: v.Energy}
}
