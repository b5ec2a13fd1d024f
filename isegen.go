// Package isegen is the public API of the ISEGEN reproduction: automatic
// generation of Instruction Set Extensions (ISEs) from basic-block
// data-flow graphs by Kernighan–Lin-style iterative improvement, after
//
//	P. Biswas, S. Banerjee, N. Dutt, L. Pozzi, P. Ienne.
//	"ISEGEN: Generation of High-Quality Instruction Set Extensions by
//	Iterative Improvement." DATE 2005.
//
// Typical use:
//
//	app := ...                      // build an Application with isegen.NewBuilder
//	cfg := isegen.DefaultConfig()   // I/O (4,2), 4 AFUs
//	res, err := isegen.Generate(app, cfg)
//	// res.Selections: each ISE with all its claimed instances
//	// res.Report:     whole-application speedup, coverage, code size, energy
//
// The package re-exports the pieces a downstream user needs: the IR
// builder and serialization, the latency model, the unified search layer
// over the ISEGEN engine and the exact and genetic baselines, the reuse
// matcher and the cycle-level simulator. See DESIGN.md for the system
// inventory; `go run ./cmd/isebench` regenerates the reproduced results.
package isegen

import (
	"context"
	"io"

	"repro/internal/core"
	"repro/internal/dfgio"
	"repro/internal/eval"
	"repro/internal/exact"
	"repro/internal/genetic"
	"repro/internal/graph"
	"repro/internal/hwgen"
	"repro/internal/ir"
	"repro/internal/latency"
	"repro/internal/reuse"
	"repro/internal/search"
	"repro/internal/sim"
)

// Core re-exported types. These are aliases, so values flow freely between
// the facade and the experiment harnesses.
type (
	// Application is a set of basic blocks with execution frequencies.
	Application = ir.Application
	// Block is one basic-block data-flow graph.
	Block = ir.Block
	// Builder constructs Blocks programmatically.
	Builder = ir.Builder
	// Value is an SSA-style handle produced by Builder methods.
	Value = ir.Value
	// Op is an instruction opcode.
	Op = ir.Op
	// Model supplies per-opcode software/hardware latency and energy.
	Model = latency.Model
	// Config controls ISE generation (port constraints, AFU budget,
	// pass limit, gain weights, latency model).
	Config = core.Config
	// Weights are the five gain-function control parameters α1..α5.
	Weights = core.Weights
	// Cut is one identified ISE.
	Cut = core.Cut
	// Instance is one occurrence of a cut in some block.
	Instance = reuse.Instance
	// Selection pairs a cut with all its claimed instances.
	Selection = eval.Selection
	// Report aggregates speedup, coverage, code-size and energy metrics.
	Report = eval.Report
	// BitSet is the dense node-set type used throughout.
	BitSet = graph.BitSet

	// SearchEngine is the unified interface over the three
	// identification algorithms (see internal/search).
	SearchEngine = search.Engine
	// SearchLimits bundles port/AFU/resource constraints for an engine.
	SearchLimits = search.Limits
	// SearchStats reports what one engine run did.
	SearchStats = search.Stats
	// Objective is the pluggable goal function of a search.
	Objective = search.Objective
	// ObjectiveParams carries per-objective parameters for registry
	// construction (NewObjective): area gate penalty, latency budget,
	// block-class weights.
	ObjectiveParams = search.ObjectiveParams
	// ObjectiveVector is a cut's score on every objective axis at once
	// (merit maximized, area minimized, energy maximized).
	ObjectiveVector = search.Vector
	// Frontier is the Pareto frontier of a multi-objective run: the
	// non-dominated candidates examined, with the selected ones flagged.
	Frontier = search.Frontier
	// FrontierPoint is one non-dominated candidate on a Frontier.
	FrontierPoint = search.FrontierPoint
	// Runner fans work out across blocks and K-L restarts with
	// deterministic, bit-identical-to-sequential results.
	Runner = search.Runner
	// CostCache is the shared memoized cut-costing cache.
	CostCache = search.CostCache
)

// Re-exported opcodes (see ir.Op for semantics).
const (
	OpConst  = ir.OpConst
	OpAdd    = ir.OpAdd
	OpSub    = ir.OpSub
	OpMul    = ir.OpMul
	OpNeg    = ir.OpNeg
	OpAnd    = ir.OpAnd
	OpOr     = ir.OpOr
	OpXor    = ir.OpXor
	OpNot    = ir.OpNot
	OpShl    = ir.OpShl
	OpShrL   = ir.OpShrL
	OpShrA   = ir.OpShrA
	OpCmpEQ  = ir.OpCmpEQ
	OpCmpNE  = ir.OpCmpNE
	OpCmpLT  = ir.OpCmpLT
	OpCmpLE  = ir.OpCmpLE
	OpCmpGT  = ir.OpCmpGT
	OpCmpGE  = ir.OpCmpGE
	OpSelect = ir.OpSelect
	OpMin    = ir.OpMin
	OpMax    = ir.OpMax
	OpLoad   = ir.OpLoad
	OpStore  = ir.OpStore
)

// NewBuilder returns a Builder for a block with the given name and
// execution frequency.
func NewBuilder(name string, freq float64) *Builder { return ir.NewBuilder(name, freq) }

// NewBitSet returns an empty node set of capacity n.
func NewBitSet(n int) *BitSet { return graph.NewBitSet(n) }

// DefaultModel returns the latency/energy model used by all experiments.
func DefaultModel() *Model { return latency.Default() }

// DefaultConfig returns the paper's main configuration: I/O constraints
// (4,2), 4 AFUs, 5 K-L passes and the tuned gain weights.
func DefaultConfig() Config { return core.DefaultConfig() }

// Result is the outcome of Generate: the selected ISEs with every claimed
// instance, plus the whole-application quality report.
type Result struct {
	// Selections are the identified ISEs with all claimed instances.
	Selections []Selection
	// Report aggregates speedup, coverage, code-size and energy.
	Report *Report
	// Frontier is the Pareto frontier of the drive's candidate pool —
	// non-nil only for multi-objective runs (objective "pareto").
	Frontier *Frontier
}

// Generate runs the full ISEGEN flow on the application: iterative K-L
// bi-partitioning under the AFU budget (with restart trajectories fanned
// out across Config.Workers), reuse-aware candidate scoring, reuse
// matching to claim every isomorphic instance of each identified cut (the
// paper's large-scale reuse), schedulability filtering, and evaluation.
func Generate(app *Application, cfg Config) (*Result, error) {
	return GenerateContext(context.Background(), app, cfg, nil)
}

// GenerateContext is Generate with cancellation and an optional shared
// cut-costing cache (nil allocates a run-private one). A persistent cache
// (NewPersistentCostCache) makes repeated runs over the same application
// skip cut costing entirely — the long-lived-service scenario. The run
// aborts between driver rounds when ctx is cancelled, returning ctx.Err().
func GenerateContext(ctx context.Context, app *Application, cfg Config, cache *CostCache) (*Result, error) {
	return GenerateWithObjectiveContext(ctx, app, cfg, "", ObjectiveParams{}, cache)
}

// GenerateWithObjective runs GenerateWithObjectiveContext under
// context.Background().
func GenerateWithObjective(app *Application, cfg Config, objective string, p ObjectiveParams) (*Result, error) {
	return GenerateWithObjectiveContext(context.Background(), app, cfg, objective, p, nil)
}

// GenerateWithObjectiveContext is the full ISEGEN-with-reuse flow under a
// chosen scoring objective: the greedy drive selects candidates by the
// named objective from the registry (see ObjectiveNames) while reuse
// matching still claims every isomorphic instance of each selected cut.
// The empty name and "reuse" both select the default reuse-aware scoring
// (wired to the shared claimer, so scoring sees claimed state) and are
// exactly equivalent to GenerateContext. Under "pareto" the returned
// Result additionally carries the run's Frontier.
func GenerateWithObjectiveContext(ctx context.Context, app *Application, cfg Config, objective string, p ObjectiveParams, cache *CostCache) (*Result, error) {
	claimer := eval.NewClaimer(app)
	var obj *Objective
	switch objective {
	case "", "reuse":
		// Reuse-aware candidate scoring (the paper's Figure 1
		// principle): a cut is worth its merit times the number of
		// disjoint schedulable instances that can be claimed for it,
		// weighted by block frequency. The scoring claimer must be the
		// claiming one, so scores see previously claimed state.
		obj = search.ReuseAware(app, cfg.Model, claimer)
	default:
		var err error
		if obj, err = search.NewObjective(objective, app, cfg.Model, p); err != nil {
			return nil, err
		}
	}

	var sels []Selection
	r := &search.Runner{Workers: cfg.Workers, Cache: cache}
	_, stats, err := r.GenerateContext(ctx, app, cfg, obj, func(bi int, cut *Cut, excluded []*graph.BitSet) {
		// The seed itself is already excluded by the driver; the
		// claimer finds every other instance among available nodes
		// (and re-admits the seed occurrence), extending excluded. A
		// cut whose every instance would form a dependency cycle with
		// previously claimed instances yields no selection; its nodes
		// stay excluded so the driver moves on.
		sel := claimer.Claim(bi, cut, excluded)
		if len(sel.Instances) > 0 {
			sels = append(sels, sel)
		}
	})
	if err != nil {
		return nil, err
	}

	rep, err := eval.Evaluate(app, cfg.Model, sels)
	if err != nil {
		return nil, err
	}
	return &Result{Selections: sels, Report: rep, Frontier: stats.Frontier}, nil
}

// GenerateCutsOnly runs ISEGEN without reuse matching: each identified cut
// counts once. This is the configuration used for the Figure 4 comparison,
// where all four algorithms are evaluated identically.
func GenerateCutsOnly(app *Application, cfg Config) ([]*Cut, error) {
	return GenerateCutsOnlyContext(context.Background(), app, cfg, nil)
}

// GenerateCutsOnlyContext is GenerateCutsOnly with cancellation and an
// optional shared cut-costing cache (see GenerateContext).
func GenerateCutsOnlyContext(ctx context.Context, app *Application, cfg Config, cache *CostCache) ([]*Cut, error) {
	cuts, _, err := GenerateCutsOnlyWithObjectiveContext(ctx, app, cfg, "", ObjectiveParams{}, cache)
	return cuts, err
}

// GenerateCutsOnlyWithObjectiveContext is GenerateCutsOnlyContext under a
// chosen scoring objective from the registry (the empty name selects
// "merit", the paper's Figure 4 configuration). The returned Frontier is
// non-nil only for multi-objective runs (objective "pareto").
func GenerateCutsOnlyWithObjectiveContext(ctx context.Context, app *Application, cfg Config, objective string, p ObjectiveParams, cache *CostCache) ([]*Cut, *Frontier, error) {
	obj := search.Merit(cfg.Model)
	if objective != "" {
		var err error
		if obj, err = search.NewObjective(objective, app, cfg.Model, p); err != nil {
			return nil, nil, err
		}
	}
	r := &search.Runner{Workers: cfg.Workers, Cache: cache}
	cuts, stats, err := r.GenerateContext(ctx, app, cfg, obj, nil)
	if err != nil {
		return nil, nil, err
	}
	return cuts, stats.Frontier, nil
}

// Evaluate computes the quality report of an arbitrary selection set.
func Evaluate(app *Application, model *Model, sels []Selection) (*Report, error) {
	return eval.Evaluate(app, model, sels)
}

// EvaluateCuts computes the quality report counting each cut once.
func EvaluateCuts(app *Application, model *Model, cuts []*Cut) (*Report, error) {
	return eval.SpeedupOfCuts(app, model, cuts)
}

// Simulate runs the cycle-level core+AFU model over the application with
// the given selections, verifying functional equivalence and returning
// measured (rather than estimated) speedup.
func Simulate(app *Application, model *Model, sels []Selection) (*sim.AppResult, error) {
	instances := map[int][]*graph.BitSet{}
	for _, sel := range sels {
		for _, inst := range sel.Instances {
			instances[inst.BlockIdx] = append(instances[inst.BlockIdx], inst.Nodes)
		}
	}
	return sim.RunApp(app, model, instances)
}

// SimResult is the simulator's application-level outcome.
type SimResult = sim.AppResult

// FindInstances exposes the reuse matcher: all occurrences of the cut
// (identified in app.Blocks[patIdx]) across the application.
func FindInstances(app *Application, patIdx int, cut *BitSet, perBlockLimit int) []Instance {
	return reuse.FindAppInstances(app, patIdx, cut, nil, perBlockLimit)
}

// Baseline algorithms (see DESIGN.md): the exact enumeration of Atasu et
// al. (DAC'03) and the genetic formulation of Biswas et al. (DAC'04).
// All drivers route through the unified internal/search engine layer.

// RacingEngine is the anytime meta-engine: K-L and the genetic baseline
// race the exact joint search on the same block, each heuristic's merit
// seeding the exact search's best-bound until the proven-optimal answer
// (bit-identical to the exact engine alone) replaces them. OnEvent
// observes each racer's publication; SearchLimits.Deadline turns it into
// a best-answer-by-then search. See DESIGN.md, "Racing anytime search".
type RacingEngine = search.Racing

// RaceEvent is one racing publication: a complete anytime or optimal
// answer (see search.RaceEvent).
type RaceEvent = search.RaceEvent

// NewCostCache returns an empty shared cut-costing cache.
func NewCostCache() *CostCache { return search.NewCostCache() }

// CostCacheStore is a disk-backed persistence layer for cut costings:
// one file per (block hash, model fingerprint) with size-bounded LRU
// eviction, so repeated sweeps over the same application skip cut costing
// even across process restarts.
type CostCacheStore = search.Store

// NewCostCacheStore opens (creating if needed) a persistent cache
// directory. maxBytes bounds the total stored size (0 selects the default
// bound, negative disables eviction).
func NewCostCacheStore(dir string, maxBytes int64) (*CostCacheStore, error) {
	return search.NewStore(dir, maxBytes)
}

// NewPersistentCostCache returns a cut-costing cache keyed by canonical
// block content (BlockHash) rather than block identity: structurally
// identical blocks share entries across parses, and entries are loaded
// from / flushed to the store (nil = memory-only). Call Flush to persist.
func NewPersistentCostCache(store *CostCacheStore) *CostCache {
	return search.NewPersistentCostCache(store)
}

// BlockHash returns the canonical content hash of a block's structure —
// stable across parses, renames and re-profiling; see dfgio.BlockHash.
func BlockHash(b *Block) string { return dfgio.BlockHash(b) }

// SearchEngineNames lists the engine registry names.
func SearchEngineNames() []string { return search.Names() }

// DefaultNodeLimit returns the paper's block-size limit for the named
// engine (25 for "exact" and "racing", 100 for "iterative", 0 = unlimited
// otherwise).
func DefaultNodeLimit(name string) int { return search.DefaultNodeLimit(name) }

// ParetoObjective is the multi-objective selector: dominance over
// (merit, area, energy) vectors with a deterministic tie-break; the run
// accumulates a Frontier (see search.Pareto).
func ParetoObjective(model *Model) *Objective { return search.Pareto(model) }

// ParetoBoundedObjective is ParetoObjective with a frontier size bound:
// at most maxFrontier points are retained, evicting the lowest-ranked one
// deterministically (see search.ParetoBounded).
func ParetoBoundedObjective(model *Model, maxFrontier int) *Objective {
	return search.ParetoBounded(model, maxFrontier)
}

// AreaWeightedObjective discounts merit by gatePenalty per NAND2 gate of
// estimated AFU area.
func AreaWeightedObjective(model *Model, gatePenalty float64) *Objective {
	return search.AreaWeighted(model, gatePenalty)
}

// EnergyWeightedObjective scores candidates by frequency-weighted
// per-execution energy saving (application-scoped; Runner.GenerateContext only).
func EnergyWeightedObjective(app *Application, model *Model) *Objective {
	return search.EnergyWeighted(app, model)
}

// LatencyBudgetedObjective restricts selection to cuts whose AFU occupies
// at most budget core cycles, picking maximum merit among those.
func LatencyBudgetedObjective(model *Model, budget int) *Objective {
	return search.LatencyBudgeted(model, budget)
}

// ClassWeightedObjective weights merit by the class of a candidate's home
// block (application-scoped). classOf nil selects BlockClassOf; classes
// absent from weights default to 1.
func ClassWeightedObjective(app *Application, model *Model, classOf func(*Block) string, weights map[string]float64) *Objective {
	return search.ClassWeighted(app, model, classOf, weights)
}

// BlockClassOf is the default block classifier of the "class" objective:
// "memory" for blocks containing loads or stores, "compute" otherwise.
func BlockClassOf(blk *Block) string { return search.BlockClass(blk) }

// NewObjective constructs an objective by registry name (see
// ObjectiveNames). app is required by the application-scoped objectives
// ("reuse", "energy", "class").
func NewObjective(name string, app *Application, model *Model, p ObjectiveParams) (*Objective, error) {
	return search.NewObjective(name, app, model, p)
}

// ObjectiveNames lists the objective registry names in sorted order.
func ObjectiveNames() []string { return search.ObjectiveNames() }

// CutObjectiveVector scores one cut on every objective axis (merit, area,
// energy) under the model — the per-cut vector the NDJSON result stream
// carries for explicitly chosen objectives.
func CutObjectiveVector(model *Model, cut *Cut) ObjectiveVector {
	return search.CutVector(model, cut)
}

// DefaultGatePenalty is the "area" objective's default merit discount per
// NAND2-equivalent gate.
const DefaultGatePenalty = search.DefaultGatePenalty

// ExactOptions configures the exact baselines. Setting Workers > 1 fans
// the branch-and-bound out inside the block on a shared best-bound with
// bit-identical results (see DESIGN.md, "Determinism contract").
// SeedBound and Bound pre-load that best-bound with an externally known
// feasible merit (the racing engine's heuristic answers), pruning the
// search without changing its result (see DESIGN.md, "Seeded-bound
// soundness").
type ExactOptions = exact.Options

// ExactBound is a raisable shared best-bound, for publishing improving
// feasible merits into a running exact search (see ExactOptions.Bound).
type ExactBound = exact.Bound

// NewExactBound returns a fresh bound at 0 (no pruning).
func NewExactBound() *ExactBound { return exact.NewBound() }

// ExactSingleCut finds the optimal single feasible cut of a block.
func ExactSingleCut(blk *Block, opt ExactOptions, excluded *BitSet) (*Cut, error) {
	return ExactSingleCutContext(context.Background(), blk, opt, excluded)
}

// ExactSingleCutContext is ExactSingleCut with in-block cancellation: the
// branch-and-bound polls ctx every few thousand explored nodes and aborts
// mid-search with ctx.Err().
func ExactSingleCutContext(ctx context.Context, blk *Block, opt ExactOptions, excluded *BitSet) (*Cut, error) {
	return exact.SingleCutContext(ctx, blk, opt, excluded)
}

// ExactIterative repeatedly finds the optimal single cut (the paper's
// "Iterative" baseline).
func ExactIterative(blk *Block, opt ExactOptions, nise int) ([]*Cut, error) {
	return ExactIterativeContext(context.Background(), blk, opt, nise)
}

// ExactIterativeContext is ExactIterative with in-block cancellation.
// Every ExactOptions field is honored (Iterative rejects bound seeding;
// see ExactOptions.SeedBound).
func ExactIterativeContext(ctx context.Context, blk *Block, opt ExactOptions, nise int) ([]*Cut, error) {
	return exact.IterativeContext(ctx, blk, opt, nise)
}

// ExactMultiCut finds the jointly optimal assignment into nise cuts (the
// paper's "Exact" baseline; tiny blocks only: a block over 64 nodes is
// refused as too large whatever ExactOptions.NodeLimit says).
func ExactMultiCut(blk *Block, opt ExactOptions, nise int) ([]*Cut, error) {
	return ExactMultiCutContext(context.Background(), blk, opt, nise)
}

// ExactMultiCutContext is ExactMultiCut with in-block cancellation. Every
// ExactOptions field is honored, including the anytime-seeding fields
// (SeedBound, Bound) the racing engine uses.
func ExactMultiCutContext(ctx context.Context, blk *Block, opt ExactOptions, nise int) ([]*Cut, error) {
	return exact.MultiCutContext(ctx, blk, opt, nise)
}

// GeneticOptions configures the genetic baseline.
type GeneticOptions = genetic.Options

// GeneticIterative finds up to nise cuts by repeated evolution.
func GeneticIterative(blk *Block, opt GeneticOptions, nise int) ([]*Cut, error) {
	eng := &search.Genetic{Seed: opt.Seed, Opt: &opt}
	cuts, _, err := eng.RunContext(context.Background(), blk, search.Merit(opt.Model), &SearchLimits{
		MaxIn: opt.MaxIn, MaxOut: opt.MaxOut, NISE: nise,
	})
	return cuts, err
}

// Hardware generation and area-constrained selection (extensions; see
// DESIGN.md).

// AFUModule is a generated combinational AFU datapath.
type AFUModule = hwgen.Module

// GenerateAFU builds the Verilog datapath module for a cut.
func GenerateAFU(blk *Block, cut *BitSet, model *Model, name string) (*AFUModule, error) {
	return hwgen.Generate(blk, cut, model, name)
}

// AFUArea returns a cut's datapath area in NAND2-equivalent gates.
func AFUArea(blk *Block, model *Model, cut *BitSet) float64 {
	return eval.AFUArea(blk, model, cut)
}

// SelectUnderAreaBudget picks the selection subset maximizing savings
// under a total AFU area budget (0 = unlimited).
func SelectUnderAreaBudget(app *Application, model *Model, sels []Selection, budget float64) []Selection {
	return eval.SelectUnderAreaBudget(app, model, sels, budget)
}

// TotalAFUArea sums the AFU areas of the selections.
func TotalAFUArea(model *Model, sels []Selection) float64 {
	return eval.TotalAFUArea(model, sels)
}

// Serialization.

// ParseApplication reads a multi-block .dfg stream.
func ParseApplication(name string, r io.Reader) (*Application, error) {
	return dfgio.ParseApplication(name, r)
}

// ParseBlock reads a single .dfg block.
func ParseBlock(r io.Reader) (*Block, error) { return dfgio.Parse(r) }

// WriteBlock serializes one block in .dfg form.
func WriteBlock(w io.Writer, b *Block) error { return dfgio.Write(w, b) }

// WriteApplication serializes all blocks of an application.
func WriteApplication(w io.Writer, app *Application) error {
	return dfgio.WriteApplication(w, app)
}

// WriteDOT renders a block (with optional highlighted cuts) as Graphviz.
func WriteDOT(w io.Writer, b *Block, cuts []*BitSet) error {
	return dfgio.WriteDOT(w, b, cuts)
}
