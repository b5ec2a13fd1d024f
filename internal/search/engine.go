// Package search is the unified engine layer over the three ISE
// identification algorithms: ISEGEN's K-L iterative improvement
// (internal/core), the exact enumerations of Atasu et al. DAC'03
// (internal/exact) and the genetic formulation of Biswas et al. DAC'04
// (internal/genetic). Every algorithm sits behind the same Engine
// interface, costs cuts through one shared memoized CostCache, and is
// driven by a pluggable Objective, so the experiment harnesses, the public
// facade and the command-line tools contain no per-algorithm driver loops.
//
// The Runner adds bounded-worker parallelism on the two independent axes —
// basic blocks and K-L restart trajectories — with a deterministic merge
// order, so parallel results are bit-identical to the sequential path.
// See DESIGN.md for how the layer fits the rest of the system.
package search

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/genetic"
	"repro/internal/ir"
	"repro/internal/obs"
)

// Limits bundles the architectural and computational constraints every
// engine understands: the register-file port constraints, the AFU budget,
// and the resource bounds of the exact searches.
type Limits struct {
	// MaxIn and MaxOut are the I/O port constraints (INmax, OUTmax).
	MaxIn, MaxOut int
	// NISE is the AFU budget: the maximum number of cuts to identify.
	NISE int
	// NodeLimit refuses larger blocks up front (exact engines only;
	// 0 = no limit).
	NodeLimit int
	// Budget bounds explored search-tree nodes (exact engines only;
	// 0 = no limit).
	Budget int64
	// Workers bounds the engine's internal concurrency (K-L restart
	// trajectories). 0 means one worker per CPU core, 1 forces the
	// sequential path. Results are identical either way.
	Workers int
	// SubtreeWorkers bounds the in-block branch-and-bound worker pool of
	// the exact engines: the decision tree is split into subtree tasks
	// that prune against a shared best-bound. 0 and 1 keep the
	// single-threaded search; a negative value selects one worker per
	// CPU core. Runs that complete within Budget are bit-identical for
	// every value; a run sitting near the budget boundary may exhaust
	// the shared budget only in parallel (see exact.Options.Budget and
	// DESIGN.md, "Determinism contract").
	SubtreeWorkers int
	// Deadline bounds the run's wall-clock time (racing engine only;
	// 0 = none). When it expires the racer abandons the exact search and
	// returns the best answer published so far — K-L's cuts, marked
	// anytime (Stats.Optimal false) — with a nil error. The returned
	// answer is timing-dependent by construction; only undeadlined racing
	// runs carry the bit-identical-to-exact guarantee.
	Deadline time.Duration
}

// Stats reports what one Engine.RunContext did.
type Stats struct {
	// Engine is the canonical algorithm name (see Engine.Name).
	Engine string
	// Candidates counts the feasible candidate cuts the engine examined
	// (K-L candidate pools; 0 for engines that only expose winners).
	Candidates int
	// Cuts is the number of cuts returned.
	Cuts int
	// Duration is the wall-clock time of the run.
	Duration time.Duration
	// Frontier is the cumulative Pareto frontier of the candidates the
	// run examined — non-nil only under a multi-objective objective
	// (see Pareto); nil for every scalar objective.
	Frontier *Frontier
	// Optimal marks answers carrying an optimality proof: the exact
	// engines' completed runs and undeadlined racing runs. A racing run
	// cut short by Limits.Deadline returns its best anytime answer with
	// Optimal false.
	Optimal bool
}

// Engine identifies up to lim.NISE instruction-set extensions in one basic
// block under the given objective. Implementations are stateless apart
// from configuration and may be reused across blocks and goroutines.
// RunContext requires an objective with a model (unlike
// Runner.GenerateContext, which can fall back to its Config's model when
// handed nil).
type Engine interface {
	// Name returns the canonical algorithm name, matching the paper's
	// Figure 4 legend ("ISEGEN", "Exact", "Iterative", "Genetic").
	Name() string
	// RunContext runs the engine on one block with in-block
	// cancellation: the K-L and exact engines poll ctx inside their inner
	// loops (amortized, every few thousand search steps) and abort
	// mid-search with ctx.Err(); the genetic engine checks between
	// generations. The heuristic engines (K-L, genetic) return the cuts
	// found before the cancellation together with ctx.Err(), so a caller
	// racing against a deadline keeps their best-so-far answer.
	RunContext(ctx context.Context, blk *ir.Block, obj *Objective, lim *Limits) ([]*core.Cut, Stats, error)
}

// KL is the ISEGEN engine: iterative Kernighan–Lin bi-partition with
// dispersed restarts, candidate pools and objective-driven selection.
type KL struct {
	// Cache is the shared cut-costing cache (nil = cost directly).
	Cache *CostCache
}

// Name implements Engine.
func (e *KL) Name() string { return "ISEGEN" }

// config assembles the core.Config for one run.
func (e *KL) config(obj *Objective, lim *Limits) core.Config {
	cfg := core.DefaultConfig()
	cfg.MaxIn, cfg.MaxOut, cfg.NISE = lim.MaxIn, lim.MaxOut, lim.NISE
	cfg.Workers = lim.Workers
	cfg.Model = obj.Model
	return cfg
}

// RunContext implements Engine: the greedy multi-cut drive of a single
// block, delegated to Runner.GenerateContext over a synthetic single-block
// application so the round semantics live in exactly one place.
// Block-local scorers see blockIdx 0 and a single-element excluded slice;
// application-scoped objectives (ReuseAware, EnergyWeighted) are rejected
// — run those through Runner.GenerateContext with their own application.
// Cancellation aborts mid-trajectory (see core.Engine.TrajectoryContext).
func (e *KL) RunContext(ctx context.Context, blk *ir.Block, obj *Objective, lim *Limits) ([]*core.Cut, Stats, error) {
	stats := Stats{Engine: e.Name()}
	if err := checkObjective(obj); err != nil {
		return nil, stats, err
	}
	if obj.AppScoped() {
		return nil, stats, fmt.Errorf("search: objective %q needs application context; use Runner.GenerateContext", obj.Name)
	}
	r := &Runner{Workers: lim.Workers, Cache: e.Cache}
	app := &ir.Application{Name: blk.Name, Blocks: []*ir.Block{blk}}
	return r.GenerateContext(ctx, app, e.config(obj, lim), obj, nil)
}

// ExactJoint is the paper's "Exact" baseline: joint optimal assignment of
// block nodes to NISE disjoint feasible cuts (tiny blocks only). Its few
// winners cost through core.MetricsOf, not the shared cache.
type ExactJoint struct{}

// Name implements Engine.
func (e *ExactJoint) Name() string { return "Exact" }

// RunContext implements Engine with the joint exact search (see runExact).
func (e *ExactJoint) RunContext(ctx context.Context, blk *ir.Block, obj *Objective, lim *Limits) ([]*core.Cut, Stats, error) {
	return runExact(ctx, e.Name(), exact.MultiCutContext, blk, obj, lim)
}

// ExactIterative is the paper's "Iterative" baseline: the exact best
// single cut is found, frozen, and the search repeats.
type ExactIterative struct{}

// Name implements Engine.
func (e *ExactIterative) Name() string { return "Iterative" }

// RunContext implements Engine with the iterated single-cut exact search
// (see runExact).
func (e *ExactIterative) RunContext(ctx context.Context, blk *ir.Block, obj *Objective, lim *Limits) ([]*core.Cut, Stats, error) {
	return runExact(ctx, e.Name(), exact.IterativeContext, blk, obj, lim)
}

// runExact is both exact engines' RunContext body; solve is the exact
// search (joint or iterative). The exact search optimizes merit
// internally, so objectives with a custom scorer are rejected rather than
// ignored. Cancellation aborts the branch-and-bound mid-block, and
// lim.SubtreeWorkers > 1 runs it on the in-block subtree pool with
// bit-identical results.
func runExact(ctx context.Context, name string, solve func(context.Context, *ir.Block, exact.Options, int) ([]*core.Cut, error),
	blk *ir.Block, obj *Objective, lim *Limits) ([]*core.Cut, Stats, error) {
	start := time.Now()
	opt, err := exactOptions(name, obj, lim)
	if err != nil {
		return nil, Stats{Engine: name}, err
	}
	ctx, sp := obs.StartSpan(ctx, obs.KindEngine, name)
	defer sp.End()
	cuts, err := solve(ctx, blk, opt, lim.NISE)
	return cuts, Stats{Engine: name, Cuts: len(cuts), Duration: time.Since(start), Optimal: err == nil}, err
}

// checkObjective rejects objectives no per-block engine can run with.
func checkObjective(obj *Objective) error {
	if obj == nil || obj.Model == nil {
		return fmt.Errorf("search: Engine.RunContext needs an objective with a model (e.g. search.Merit(model))")
	}
	return nil
}

func exactOptions(name string, obj *Objective, lim *Limits) (exact.Options, error) {
	if err := checkObjective(obj); err != nil {
		return exact.Options{}, err
	}
	if obj.Score != nil || obj.MultiObjective() {
		return exact.Options{}, fmt.Errorf("search: engine %q optimizes merit and cannot honor objective %q; only \"merit\" (or the ISEGEN engine) works here", name, obj.Name)
	}
	return exact.Options{
		MaxIn: lim.MaxIn, MaxOut: lim.MaxOut, Model: obj.Model,
		NodeLimit: lim.NodeLimit, Budget: lim.Budget,
		Workers: lim.SubtreeWorkers,
	}, nil
}

// Genetic is the DAC'04 baseline: iterated single-cut evolution.
type Genetic struct {
	// Seed makes runs repeatable (successive cuts decorrelate from it).
	Seed int64
	// Opt optionally overrides the full genetic parameter set; MaxIn,
	// MaxOut, Model, Seed and Metrics are still taken from the run.
	Opt *genetic.Options
	// Cache is the shared cut-costing cache — fitness evaluation is the
	// genetic algorithm's hot path.
	Cache *CostCache
}

// Name implements Engine.
func (e *Genetic) Name() string { return "Genetic" }

// SetSeed reseeds the engine (registry callers discover it by interface).
func (e *Genetic) SetSeed(seed int64) { e.Seed = seed }

// RunContext implements Engine. The evolution optimizes (penalty-shaped)
// merit internally, so objectives with a custom scorer are rejected
// rather than ignored. The evolution is not cancellable mid-generation;
// the context is checked up front and between generations, and a
// cancelled run returns the cuts evolved before the stop with ctx.Err().
func (e *Genetic) RunContext(ctx context.Context, blk *ir.Block, obj *Objective, lim *Limits) ([]*core.Cut, Stats, error) {
	start := time.Now()
	if err := ctx.Err(); err != nil {
		return nil, Stats{Engine: e.Name()}, err
	}
	if err := checkObjective(obj); err != nil {
		return nil, Stats{Engine: e.Name()}, err
	}
	if obj.Score != nil || obj.MultiObjective() {
		return nil, Stats{Engine: e.Name()},
			fmt.Errorf("search: engine %q optimizes merit and cannot honor objective %q; only \"merit\" (or the ISEGEN engine) works here", e.Name(), obj.Name)
	}
	var opt genetic.Options
	if e.Opt != nil {
		opt = *e.Opt
	}
	opt.MaxIn, opt.MaxOut, opt.Model, opt.Seed = lim.MaxIn, lim.MaxOut, obj.Model, e.Seed
	if e.Cache != nil {
		opt.Metrics = e.Cache.Metrics
	}
	// Mid-run cancellation: the evolution polls the context between
	// generations and abandons early; ctx.Err() marks the returned cuts
	// as a truncated answer.
	opt.Stop = func() bool { return ctx.Err() != nil }
	_, sp := obs.StartSpan(ctx, obs.KindEngine, e.Name())
	defer sp.End()
	opt.Obs = obs.FromContext(ctx)
	cuts, err := genetic.Iterative(blk, opt, lim.NISE)
	if err != nil {
		return nil, Stats{Engine: e.Name()}, err
	}
	return cuts, Stats{Engine: e.Name(), Cuts: len(cuts), Duration: time.Since(start)}, ctx.Err()
}

// engineFactories maps registry names (lower-case CLI spellings) to
// constructors. Canonical display names come from Engine.Name.
var engineFactories = map[string]func(cache *CostCache) Engine{
	"isegen":    func(c *CostCache) Engine { return &KL{Cache: c} },
	"exact":     func(*CostCache) Engine { return &ExactJoint{} },
	"iterative": func(*CostCache) Engine { return &ExactIterative{} },
	"genetic":   func(c *CostCache) Engine { return &Genetic{Seed: 1, Cache: c} },
	"racing":    func(c *CostCache) Engine { return &Racing{Cache: c} },
}

// New returns the named engine ("isegen", "exact", "iterative", "genetic"
// or "racing") wired to the given shared cost cache (which may be nil).
func New(name string, cache *CostCache) (Engine, error) {
	f, ok := engineFactories[name]
	if !ok {
		return nil, fmt.Errorf("search: unknown engine %q (have %v)", name, Names())
	}
	return f(cache), nil
}

// Names lists the registry names in sorted order.
func Names() []string {
	out := make([]string, 0, len(engineFactories))
	for n := range engineFactories {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// IsResourceRefusal reports whether an engine error is one of the
// documented resource refusals — the block exceeded the engine's node
// limit or the search exhausted its tree budget — rather than a bug or a
// cancellation. Sweep drivers (the serving layer's per-block fan-out, the
// differential fuzzing harness) use it to skip a block for one engine
// instead of failing the whole run.
func IsResourceRefusal(err error) bool {
	return errors.Is(err, exact.ErrTooLarge) || errors.Is(err, exact.ErrBudget)
}

// DefaultBudget is the standard search-tree node budget for the exact
// engines — large enough that every in-limit benchmark block completes,
// bounded so a pathological block cannot wedge a driver. The offline CLI,
// the serving layer and the experiment harnesses all share this value;
// diverging budgets would break their bit-identical-results contract.
const DefaultBudget int64 = 2_000_000_000

// DefaultNodeLimit returns the paper's block-size limit for the named
// engine: the joint Exact search handled ~25 nodes and Iterative ~100;
// the heuristics have no limit (0). The racing engine shares the joint
// Exact limit — its optimality proof comes from the same search, so an
// undeadlined racing stream covers exactly the blocks an exact one does.
func DefaultNodeLimit(name string) int {
	switch name {
	case "exact", "racing":
		return 25
	case "iterative":
		return 100
	}
	return 0
}
