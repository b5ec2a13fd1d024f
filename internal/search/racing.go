package search

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/ir"
	"repro/internal/obs"
)

// RaceEvent is one publication of the racing engine: a complete answer one
// of the racers produced, streamed to OnEvent as the race unfolds. Events
// are strictly merit-monotone — a later event always improves on (or, for
// the final optimal event, at least matches) every earlier one — so a
// consumer may act on any event and only ever trade quality for time.
type RaceEvent struct {
	// Stage is "anytime" (heuristic answer, no optimality proof) or
	// "optimal" (the exact search completed; this is the final answer).
	Stage string
	// Engine is the canonical name of the racer that published ("ISEGEN",
	// "Genetic" or "Exact").
	Engine string
	// Merit is the summed merit of Cuts.
	Merit float64
	// Cuts is the published answer (disjoint feasible cuts).
	Cuts []*core.Cut
}

// Racing is the anytime meta-engine: it runs the two heuristic engines —
// K-L (ISEGEN) and the genetic baseline — concurrently against the exact
// joint branch-and-bound on the same block, all sharing the cost cache
// and — the point of the exercise — the exact search's best-bound. K-L
// answers in milliseconds; the genetic search takes tens of milliseconds
// but routinely lands on the true optimum where K-L stalls in a local
// one. Each heuristic's summed merit is published into the running exact
// search through exact.Bound's CAS path as soon as it completes, so the
// branch-and-bound prunes against a near-optimal bound long before it
// would have found one itself. The final answer is the exact search's and
// is bit-identical to running the exact engine alone: the seeded bound
// only prunes subtrees strictly below the optimum (see DESIGN.md,
// "Seeded-bound soundness").
//
// Limits.Deadline turns the racer into a true anytime search: on expiry
// the in-flight searches are cancelled through their contexts and the
// best heuristic answer so far — marked non-optimal — is returned with a
// nil error. Mid-run exact improvements are worker-private and are not
// streamed; the stream carries complete answers only.
type Racing struct {
	// Cache is the shared cut-costing cache the two heuristic racers cost
	// through.
	Cache *CostCache
	// OnEvent, when non-nil, observes every publication as it happens
	// (the service layer streams them as "frontier" NDJSON records). It
	// may be invoked from the racer's goroutines, but never concurrently,
	// and never after RunContext returns.
	OnEvent func(RaceEvent)

	// gate, when non-nil, delays both heuristic racers' starts (test
	// hook: it makes "exact wins the race" deterministic).
	gate func()
}

// Name implements Engine.
func (e *Racing) Name() string { return "Racing" }

// race is the per-run shared state of one RunContext: the event funnel
// (serialized, merit-monotone, closed by the optimal event).
type race struct {
	onEvent func(RaceEvent)

	mu        sync.Mutex
	lastMerit float64
	finished  bool
}

// publish funnels one racer's answer through the monotonicity gate:
// anytime events must strictly improve the stream and are dropped after
// the optimal event; the optimal event always goes out and closes the
// stream. It reports whether the event was emitted.
func (r *race) publish(ev RaceEvent) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.finished {
		return false
	}
	if ev.Stage == "optimal" {
		r.finished = true
	} else if ev.Merit <= r.lastMerit || len(ev.Cuts) == 0 {
		return false
	}
	r.lastMerit = ev.Merit
	if r.onEvent != nil {
		r.onEvent(ev)
	}
	return true
}

// totalMerit sums the cuts' merits — integer-valued floats, so the sum is
// exact and matches the exact search's incremental leaf total bit for bit.
func totalMerit(cuts []*core.Cut) float64 {
	t := 0.0
	for _, c := range cuts {
		t += c.Merit()
	}
	return t
}

// heurOut is one heuristic racer's outcome: its cuts (possibly a partial
// answer when the race ended first) and the engine name that produced
// them, for the deadline path's best-so-far pick.
type heurOut struct {
	engine string
	cuts   []*core.Cut
	err    error
}

// RunContext implements Engine: the two heuristic racers (K-L and the
// genetic baseline) run on their own goroutines while the exact joint
// search runs on the calling one, all under the same (possibly deadlined)
// context. All spawned work is joined before returning on every path — no
// goroutine outlives the call.
func (e *Racing) RunContext(ctx context.Context, blk *ir.Block, obj *Objective, lim *Limits) ([]*core.Cut, Stats, error) {
	start := time.Now()
	stats := Stats{Engine: e.Name()}
	opt, err := exactOptions(e.Name(), obj, lim)
	if err != nil {
		return nil, stats, err
	}
	// Fail oversized blocks (over the node limit or the joint search's
	// MaxJointNodes cap) before spawning the heuristic racers, so no
	// heuristic work is wasted on a block the proving side refuses anyway.
	if err := exact.CheckJointSize(blk, lim.NodeLimit); err != nil {
		return nil, stats, err
	}
	ctx, sp := obs.StartSpan(ctx, obs.KindEngine, e.Name())
	defer sp.End()
	rec := obs.FromContext(ctx)

	raceCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	deadlined := func() bool { return false }
	if lim.Deadline > 0 {
		var dcancel context.CancelFunc
		raceCtx, dcancel = context.WithTimeout(raceCtx, lim.Deadline)
		defer dcancel()
		deadlined = func() bool {
			return errors.Is(raceCtx.Err(), context.DeadlineExceeded) && ctx.Err() == nil
		}
	}

	r := &race{onEvent: e.OnEvent}
	bound := exact.NewBound()

	// seed publishes one heuristic's answer: the cuts are disjoint, convex
	// and within the I/O limits — one feasible assignment of the joint
	// exact search — so their summed merit is <= its optimum and is a
	// sound (determinism-preserving) bound seed.
	seed := func(engine string, cuts []*core.Cut) {
		if len(cuts) == 0 {
			return
		}
		m := totalMerit(cuts)
		if bound.Raise(m) {
			rec.Add(obs.RacingSeeds, 1)
		}
		r.publish(RaceEvent{Stage: "anytime", Engine: engine, Merit: m, Cuts: cuts})
	}

	// The K-L racer: heuristic cuts as fast as possible. A cancelled K-L
	// run still returns the (deterministic prefix of) cuts selected so
	// far — the deadline path below uses them as the best-so-far answer.
	heurCh := make(chan heurOut, 2)
	go func() {
		if e.gate != nil {
			e.gate()
		}
		kl := &KL{Cache: e.Cache}
		cuts, _, err := kl.RunContext(raceCtx, blk, obj, lim)
		if err == nil {
			seed(kl.Name(), cuts)
		}
		heurCh <- heurOut{engine: kl.Name(), cuts: cuts, err: err}
	}()
	// The genetic racer (the registry's seed): slower than K-L but
	// routinely optimal where K-L stalls in a local maximum, so its
	// (later) publication tightens the bound further. Like K-L, a run
	// cancelled between generations still returns its best cuts so far
	// as a partial answer for the deadline path.
	go func() {
		if e.gate != nil {
			e.gate()
		}
		ga := &Genetic{Seed: 1, Cache: e.Cache}
		cuts, _, err := ga.RunContext(raceCtx, blk, obj, lim)
		if err == nil {
			seed(ga.Name(), cuts)
		}
		heurCh <- heurOut{engine: ga.Name(), cuts: cuts, err: err}
	}()
	const heurRacers = 2

	// The exact racer, pruning against the shared (heuristic-raised) bound.
	opt.Bound = bound
	cuts, exactErr := exact.MultiCutContext(raceCtx, blk, opt, lim.NISE)

	finish := func(optimal bool) Stats {
		stats.Optimal = optimal
		stats.Cuts = len(cuts)
		stats.Duration = time.Since(start)
		return stats
	}

	if exactErr == nil {
		// The proof came in: publish the final answer, stop the heuristic
		// racers if they are still running, and join them.
		r.publish(RaceEvent{Stage: "optimal", Engine: "Exact", Merit: totalMerit(cuts), Cuts: cuts})
		cancel()
		for i := 0; i < heurRacers; i++ {
			<-heurCh
		}
		return cuts, finish(true), nil
	}

	// The exact search failed; the heuristic results decide what that
	// means.
	best := heurOut{}
	for i := 0; i < heurRacers; i++ {
		h := <-heurCh
		// Strict improvement only: on a merit tie the earlier-joined
		// racer keeps the answer, so the pick is stable.
		if len(h.cuts) > 0 && totalMerit(h.cuts) > totalMerit(best.cuts) {
			best = h
		}
	}
	if err := ctx.Err(); err != nil {
		// The caller's context ended the run: the standard engine
		// cancellation contract, whatever the deadline state.
		return nil, finish(false), err
	}
	if deadlined() {
		// The race deadline expired: return the best heuristic answer so
		// far. A racer cut off mid-flight still returned a usable partial
		// answer; publish it if it improves the stream (completed racers
		// already published themselves).
		cuts = best.cuts
		if len(cuts) > 0 {
			r.publish(RaceEvent{Stage: "anytime", Engine: best.engine, Merit: totalMerit(cuts), Cuts: cuts})
		}
		return cuts, finish(false), nil
	}
	// A real exact-side failure (e.g. exact.ErrBudget): propagate it like
	// the exact engine would, so racing stays a drop-in replacement.
	cuts = nil
	return nil, finish(false), exactErr
}
