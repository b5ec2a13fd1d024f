package search

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/latency"
	"repro/internal/obs"
)

// Runner executes searches across the two independent axes of an
// application — basic blocks and K-L restart trajectories — on a bounded
// worker pool. Merge order is deterministic (input order for blocks, seed
// order for trajectories), so a Runner with N workers produces results
// bit-identical to the sequential path; only wall-clock time changes.
//
// Every method honors cancellation: request timeouts and client
// disconnects (the serving scenario) abort between work items, the pool
// drains without leaking goroutines, and ctx.Err() is returned.
type Runner struct {
	// Workers bounds the pool; 0 means one worker per CPU core
	// (runtime.GOMAXPROCS), 1 forces the sequential path.
	Workers int
	// Cache is the shared cut-costing cache. Nil is fine:
	// GenerateContext then memoizes within a single call (its driver
	// rounds still overlap).
	Cache *CostCache
}

// workers normalizes a worker-count knob.
func workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// parallelFor runs fn(0..n-1) on at most w workers and waits for all.
// With w <= 1 it degenerates to a plain loop on the calling goroutine.
// Cancellation is checked before each work item is claimed: in-flight
// items finish (results stay deterministic for every completed slot),
// unclaimed items are skipped, every worker goroutine exits before the
// call returns, and the context's error is reported.
//
// A panic in fn is re-raised on the calling goroutine after the pool has
// drained (first panic wins; remaining items are skipped), so callers see
// the same propagation semantics as a plain loop — a serving layer's
// recover around the call contains the crash no matter the worker count.
func parallelFor(ctx context.Context, w, n int, fn func(i int)) error {
	if n == 0 {
		return ctx.Err()
	}
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(i)
		}
		return ctx.Err()
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var panicked atomic.Bool
	var panicVal atomic.Value
	wg.Add(w)
	done := ctx.Done()
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					if panicked.CompareAndSwap(false, true) {
						panicVal.Store(r)
					}
				}
			}()
			for {
				select {
				case <-done:
					return
				default:
				}
				if panicked.Load() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	if panicked.Load() {
		panic(panicVal.Load())
	}
	return ctx.Err()
}

// candidates runs the engine's restart trajectories on up to w workers
// (parallelFor degenerates to a plain loop for one worker or one seed)
// and finalizes the merged snapshot pool. Snapshots are merged in seed
// order, so the result is identical for every worker count. Each
// trajectory polls the context inside its K-L loop (TrajectoryContext),
// so cancellation aborts mid-block — a 696-node AES bi-partition stops
// within a few toggle steps, not at the next work-item boundary. On
// cancellation it returns nil and the context's error.
func candidates(ctx context.Context, eng *core.Engine, w int) ([]*core.Cut, error) {
	seeds := eng.Seeds()
	perSeed := make([][]core.Candidate, len(seeds))
	err := parallelFor(ctx, workers(w), len(seeds), func(i int) {
		// A cancelled trajectory's error surfaces through parallelFor's
		// ctx check; its partial snapshots are discarded with the run.
		perSeed[i], _ = eng.TrajectoryContext(ctx, seeds[i])
	})
	if err != nil {
		return nil, err
	}
	var snaps []core.Candidate
	for _, s := range perSeed {
		snaps = append(snaps, s...)
	}
	return eng.Finalize(snaps), nil
}

// ClaimFunc is invoked by GenerateContext after each cut is selected; it may
// freeze additional nodes (e.g. other isomorphic instances of the cut
// discovered by the reuse matcher) by mutating the per-block excluded sets
// it is handed. Claims run sequentially in selection order.
type ClaimFunc func(blockIdx int, cut *core.Cut, excluded []*graph.BitSet)

// GenerateContext solves the paper's Problem 2 over a whole application:
// it repeatedly selects the block with the highest remaining speedup
// potential (execution frequency × estimated gain of its remaining
// feasible nodes), bi-partitions it with restart trajectories fanned out
// across the worker pool, lets the objective pick from the candidate pool,
// freezes the selected nodes and repeats until cfg.NISE cuts are found or
// no block yields an accepted candidate.
//
// The greedy round structure is inherently sequential — each round's
// exclusions depend on the previous selection — so the parallelism lives
// inside the rounds, and the output is bit-identical for every worker
// count. Cancellation is honored between rounds and between restart
// trajectories; a cancelled run returns ctx.Err() and the cuts selected
// so far (a deterministic prefix of the full run's output).
func (r *Runner) GenerateContext(ctx context.Context, app *ir.Application, cfg core.Config, obj *Objective, claim ClaimFunc) ([]*core.Cut, Stats, error) {
	ctx, sp := obs.StartSpan(ctx, obs.KindEngine, "ISEGEN")
	defer sp.End()
	start := time.Now()
	stats := Stats{Engine: "ISEGEN"}
	if err := cfg.Validate(); err != nil {
		return nil, stats, err
	}
	if obj == nil {
		obj = Merit(cfg.Model)
	} else if obj.Model == nil {
		// Resolve on a copy: the caller's Objective may be shared
		// across concurrent GenerateContext calls.
		resolved := *obj
		resolved.Model = cfg.Model
		obj = &resolved
	}
	cfg.Model = obj.Model
	cache := r.Cache
	if cache == nil {
		cache = NewCostCache()
	}
	w := workers(r.Workers)
	if cfg.Workers > 0 {
		w = cfg.Workers
	}

	excluded := make([]*graph.BitSet, len(app.Blocks))
	for i, blk := range app.Blocks {
		if err := cfg.Model.Validate(blk); err != nil {
			return nil, stats, err
		}
		excluded[i] = graph.NewBitSet(blk.N())
	}
	// Multi-objective runs accumulate the Pareto frontier of every
	// candidate pool; frontier maintenance happens only on this (driver)
	// goroutine, in round order, so it is deterministic for every worker
	// count — including the bounded-frontier eviction. stats.Frontier
	// stays nil for scalar objectives.
	if obj.MultiObjective() {
		stats.Frontier = NewBoundedFrontier(obj.maxFrontier)
	}
	var cuts []*core.Cut
	exhausted := make([]bool, len(app.Blocks))
	for len(cuts) < cfg.NISE {
		if err := ctx.Err(); err != nil {
			stats.Cuts = len(cuts)
			stats.Duration = time.Since(start)
			return cuts, stats, err
		}
		if ft := fault.FromContext(ctx).Check(fault.PointSearchRound); ft.Firing() {
			// Error-shaped kinds abort the round loop (the cuts selected so
			// far are a deterministic prefix, same as cancellation); Panic
			// and Stall flow through Apply.
			if err := ft.Error(); err != nil {
				stats.Cuts = len(cuts)
				stats.Duration = time.Since(start)
				return cuts, stats, err
			}
			ft.Apply(ctx)
		}
		bi := selectBlock(app, cfg.Model, excluded, exhausted)
		if bi < 0 {
			break
		}
		eng, err := core.NewEngine(app.Blocks[bi], cfg, excluded[bi])
		if err != nil {
			return nil, stats, err
		}
		eng.SetMetrics(cache.Metrics)
		bctx, bsp := obs.StartSpan(ctx, obs.KindBlock, app.Blocks[bi].Name)
		cands, err := candidates(bctx, eng, w)
		bsp.End()
		if err != nil {
			stats.Cuts = len(cuts)
			stats.Duration = time.Since(start)
			return cuts, stats, err
		}
		stats.Candidates += len(cands)
		cut := obj.pick(bi, cands, excluded, stats.Frontier)
		if cut == nil {
			exhausted[bi] = true
			continue
		}
		if stats.Frontier != nil {
			stats.Frontier.markSelected(bi, cut)
		}
		cuts = append(cuts, cut)
		excluded[bi].Or(cut.Nodes)
		if claim != nil {
			claim(bi, cut, excluded)
		}
	}
	stats.Cuts = len(cuts)
	stats.Duration = time.Since(start)
	return cuts, stats, nil
}

// ForEachContext runs fn(0..n-1) on the runner's worker pool and waits. It
// is the deterministic fan-out primitive the experiment harnesses and the
// service use for embarrassingly parallel sweeps (results must be written
// to slot i only). It returns ctx.Err() when cancelled mid-sweep.
func (r *Runner) ForEachContext(ctx context.Context, n int, fn func(i int)) error {
	return parallelFor(ctx, workers(r.Workers), n, fn)
}

// selectBlock returns the index of the non-exhausted block with the
// highest speedup potential, or -1 when none remains.
func selectBlock(app *ir.Application, model *latency.Model, excluded []*graph.BitSet, exhausted []bool) int {
	best, bestPot := -1, 0.0
	for i, blk := range app.Blocks {
		if exhausted[i] {
			continue
		}
		pot := core.BlockPotential(blk, model, excluded[i])
		if pot <= 0 {
			exhausted[i] = true
			continue
		}
		if best < 0 || pot > bestPot {
			best, bestPot = i, pot
		}
	}
	return best
}
