package exact

import (
	"context"
	"math"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// checkEvery is the amortized control-check stride of the branch-and-bound
// inner loops: every checkEvery explored search-tree nodes a worker flushes
// its private explored count into the shared counter, re-checks the budget
// and the context, and observes aborts published by other workers. One
// atomic add + one context poll per 4096 nodes is unmeasurable against the
// per-node work, yet bounds cancellation latency on a 696-node AES block to
// microseconds instead of the full search.
const checkEvery = 4096

// Bound is a monotone shared merit bound: a lock-free float64 word that
// only ever rises. It is the publication side of the branch-and-bound's
// best-bound pruning, exported so an external producer (the racing
// meta-engine's heuristic goroutines) can keep tightening a running search's
// bound through the same CAS path the search's own workers use. Raising
// it with any merit that some feasible assignment actually achieves is
// sound AND preserves the search's bit-identical result: cross-subtree
// pruning is strict (ub < bound), so the DFS path to the first optimal
// leaf — every node of which has ub >= optimum — is never pruned by a
// bound <= optimum. Raising it past the true optimum would silently
// discard the optimum; never publish speculative values.
type Bound struct {
	merit atomic.Uint64 // float64 bits of the best published merit
}

// NewBound returns a bound starting at 0 (Float64bits(0) == 0, so the
// zero value is already the initial bound).
func NewBound() *Bound { return new(Bound) }

// Best returns the current bound. Plain atomic load: pruning reads it on
// every search node.
func (b *Bound) Best() float64 {
	return math.Float64frombits(b.merit.Load())
}

// Raise publishes merit m if it improves the bound and reports whether it
// did (CAS loop; lost races retry against the new value, so the bound is
// monotone). Safe to call from any goroutine, including while a search
// pruning against the bound is running. A NaN, infinite or negative m is
// the merit of no feasible assignment and is ignored: +Inf would prune
// every subtree, so the search would return no cuts and no error, and NaN
// would poison the comparisons.
func (b *Bound) Raise(m float64) bool {
	if m < 0 || math.IsNaN(m) || math.IsInf(m, 0) {
		return false
	}
	for {
		cur := b.merit.Load()
		if m <= math.Float64frombits(cur) {
			return false
		}
		if b.merit.CompareAndSwap(cur, math.Float64bits(m)) {
			return true
		}
	}
}

// sharedBound is the cross-subtree search state of one branch-and-bound
// run: the globally best merit found so far (a Bound — possibly shared
// with an external producer), the shared explored-node budget, and the
// abort flags (budget exhaustion, context cancellation, peer abort). The
// sequential path uses the same object with a single worker, so budget and
// cancellation semantics live in exactly one place.
type sharedBound struct {
	ctx    context.Context
	budget int64
	bound  *Bound

	explored  atomic.Int64
	stop      atomic.Bool
	budgetHit atomic.Bool

	// Observability tallies, folded into the run's recorder (if any) by
	// the entry points. Workers count prunes into plain searchCtl fields
	// and flush them here on the same amortized stride as explored, so
	// the inner loops never touch an atomic.
	prunedLocal  atomic.Int64 // subtrees cut by the worker-local best
	prunedShared atomic.Int64 // subtrees cut by the shared bound
	raises       atomic.Int64 // successful bound publications by this search
	tasks        atomic.Int64 // parallel prefix tasks claimed
}

// newSharedBound assembles one run's control state. bound may be an
// external (shared, pre-seeded) Bound; nil allocates a private one.
func newSharedBound(ctx context.Context, budget int64, bound *Bound) *sharedBound {
	if bound == nil {
		bound = NewBound()
	}
	return &sharedBound{ctx: ctx, budget: budget, bound: bound}
}

// best returns the current global bound.
func (sh *sharedBound) best() float64 { return sh.bound.Best() }

// raise publishes merit m if it improves the global bound.
func (sh *sharedBound) raise(m float64) {
	if sh.bound.Raise(m) {
		sh.raises.Add(1)
	}
}

// obsFlush folds the run's tallies into the context's recorder, if any.
// Called once per entry-point invocation — never on the hot path. The
// initial seed raise (racing's heuristic bound) goes through bound.Raise
// directly, so raises counts only publications by the search itself.
func (sh *sharedBound) obsFlush(ctx context.Context) {
	rec := obs.FromContext(ctx)
	if rec == nil {
		return
	}
	rec.Add(obs.ExactExplored, sh.explored.Load())
	rec.Add(obs.ExactLocalPrunes, sh.prunedLocal.Load())
	rec.Add(obs.ExactSharedPrunes, sh.prunedShared.Load())
	rec.Add(obs.ExactBoundRaises, sh.raises.Load())
	rec.Add(obs.ExactSubtreeTasks, sh.tasks.Load())
}

// charge adds n freshly explored nodes to the shared counter and reports
// whether the search must stop: budget exhausted, context cancelled, or a
// peer already aborted. Called every checkEvery nodes per worker.
func (sh *sharedBound) charge(n int64) bool {
	if e := sh.explored.Add(n); sh.budget > 0 && e > sh.budget {
		sh.budgetHit.Store(true)
		sh.stop.Store(true)
	} else if sh.ctx != nil && sh.ctx.Err() != nil {
		sh.stop.Store(true)
	}
	return sh.stop.Load()
}

// err reports why the search stopped: the context's error if it was
// cancelled, ErrBudget if the shared budget ran out, nil otherwise.
func (sh *sharedBound) err() error {
	if sh.ctx != nil {
		if e := sh.ctx.Err(); e != nil {
			return e
		}
	}
	if sh.budgetHit.Load() {
		return ErrBudget
	}
	return nil
}

// maxSubtreeTasks bounds the phase-1 task list. The split depth is
// clamped so branching^depth cannot exceed it, keeping enumeration memory
// O(maxSubtreeTasks · depth) however many workers are requested (the
// service's subtree_workers parameter is remotely settable); an unclamped
// depth would let one request materialize an exponential prefix list
// before the budget could abort it. Results are identical for every
// depth, so clamping is purely a resource bound.
const maxSubtreeTasks = 4096

// splitDepthFor resolves the subtree-split depth: deep enough for ~4-8
// tasks per worker (load balance when subtree sizes are skewed, which
// pruning guarantees). branching is the maximum decisions per tree level
// (2 for the single-cut search, nise+1 for the joint search); the depth
// is clamped to the maxSubtreeTasks bound and inside the decision
// sequence.
func splitDepthFor(workers, n, branching int) int {
	if branching < 2 {
		branching = 2
	}
	maxDepth := 0
	for t := 1; t <= maxSubtreeTasks/branching; t *= branching {
		maxDepth++
	}
	d := min(bits.Len(uint(workers))+2, maxDepth)
	if d > n-1 {
		d = n - 1
	}
	return d
}

// searchCtl is the branch-and-bound control state shared by the single-
// and multi-cut searches: amortized explored-node accounting against the
// shared bound, the latched stop flag, and the subtree split/replay
// bookkeeping. It lives in one place because the budget and replay
// semantics must stay behaviorally identical for both searches — the
// determinism contract depends on them.
type searchCtl struct {
	sh       *sharedBound
	explored int64
	flushed  int64
	stopped  bool

	// Worker-private prune tallies; flush drains them into the shared
	// atomics alongside the explored delta.
	prunedLocal  int64
	prunedShared int64

	// Subtree split/replay state: collect is non-nil while enumerating
	// decision prefixes of length splitAt (trace is the current prefix);
	// a non-empty path makes search replay that prefix before exploring.
	splitAt int
	collect func([]byte)
	trace   []byte
	path    []byte
}

// enter counts one explored search node and runs the amortized stop
// check; it reports whether the search may continue.
func (c *searchCtl) enter() bool {
	if c.stopped {
		return false
	}
	c.explored++
	if c.explored-c.flushed >= checkEvery {
		stop := c.flush()
		// Yield at the amortized poll point (and only here — not in the
		// final flush, so sub-checkEvery runs never yield): the inner
		// loops are pure CPU, so on a single-P runtime a long proof
		// would otherwise starve concurrent bound producers (the racing
		// engine's heuristic goroutines) down to the ~10ms preemption
		// quantum, delaying the very seed this search prunes against.
		// With no runnable peers this is tens of nanoseconds per
		// checkEvery (4096) nodes — noise.
		runtime.Gosched()
		if stop {
			return false
		}
	}
	return true
}

// flush charges the privately counted nodes to the shared budget and
// re-checks the stop conditions; it reports (and latches) stop.
func (c *searchCtl) flush() bool {
	d := c.explored - c.flushed
	c.flushed = c.explored
	if c.prunedLocal != 0 {
		c.sh.prunedLocal.Add(c.prunedLocal)
		c.prunedLocal = 0
	}
	if c.prunedShared != 0 {
		c.sh.prunedShared.Add(c.prunedShared)
		c.prunedShared = 0
	}
	if d > 0 && c.sh.charge(d) {
		c.stopped = true
	} else if c.sh.stop.Load() {
		c.stopped = true
	}
	return c.stopped
}

// ctl returns the control state itself; the worker types embed searchCtl,
// so it is how runSplit reaches theirs.
func (c *searchCtl) ctl() *searchCtl { return c }

// splitSearch is one branch-and-bound worker as runSplit drives it: its
// control state, its search kernel, and takeBest, which returns a copy of
// the worker's first-best assignment with its merit (R's zero value and 0
// when it has none) and resets that merit to 0, so the worker's next
// subtree task records its own first-best.
type splitSearch[R any] interface {
	ctl() *searchCtl
	search(i int)
	takeBest() (R, float64)
}

// runSplit runs one branch-and-bound from root over a decision sequence of
// length n with at most branching decisions per level, and returns the
// best assignment (R's zero value when none has positive merit). With
// w <= 1 workers, or a tree too small to split, root searches alone.
// Otherwise the run has three phases:
//
//  1. root enumerates the decision prefixes at splitDepthFor's depth —
//     the subtree tasks, in DFS order (include before exclude, exactly
//     the sequential visit order, which is what makes the merge
//     tie-break reproduce the sequential winner);
//  2. runSubtrees drains them on w workers made by fork; each replays a
//     task's prefix on private state, explores its subtree pruning
//     against the shared bound, and records its local first-best;
//  3. the first task in prefix order achieving the maximum merit wins,
//     matching the sequential first-improvement rule.
func runSplit[R any, S splitSearch[R]](root S, n, branching, w int, fork func() S) (R, error) {
	var none R
	c := root.ctl()
	d := splitDepthFor(w, n, branching)
	if w <= 1 || d < 1 || n < 4 {
		root.search(0)
		c.flush()
		if err := c.sh.err(); err != nil {
			return none, err
		}
		best, _ := root.takeBest()
		return best, nil
	}

	var tasks [][]byte
	c.splitAt = d
	c.collect = func(p []byte) { tasks = append(tasks, p) }
	root.search(0)
	c.collect = nil
	c.flush()
	if err := c.sh.err(); err != nil {
		return none, err
	}

	type result struct {
		best  R
		merit float64
	}
	results := make([]result, len(tasks))
	runSubtrees(c.sh, w, len(tasks), func() func(ti int) {
		ws := fork()
		wc := ws.ctl()
		return func(ti int) {
			wc.path = tasks[ti]
			ws.search(0)
			wc.flush()
			if best, merit := ws.takeBest(); !wc.stopped && merit > 0 {
				results[ti] = result{best, merit}
			}
		}
	})
	if err := c.sh.err(); err != nil {
		return none, err
	}

	best, bestMerit := none, 0.0
	for _, r := range results {
		if r.merit > bestMerit {
			best, bestMerit = r.best, r.merit
		}
	}
	return best, nil
}

// runSubtrees drains the enumerated prefix tasks on w workers. Each
// worker calls newWorker once for its private state, then runs one task
// index at a time. A panic in any worker is re-raised on the calling
// goroutine after the pool drains, matching the containment semantics of
// the search layer's parallelFor.
func runSubtrees(sh *sharedBound, w, tasks int, newWorker func() func(ti int)) {
	if w > tasks {
		w = tasks
	}
	// Recorder plumbing is resolved once: each claimed task gets a
	// subtree span under the enclosing search span. With no recorder both
	// calls are nil-receiver no-ops.
	var rec *obs.Recorder
	var parent obs.SpanID
	if sh.ctx != nil {
		rec = obs.FromContext(sh.ctx)
		parent = obs.ParentSpan(sh.ctx)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var panicked atomic.Bool
	var panicVal atomic.Value
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					if panicked.CompareAndSwap(false, true) {
						panicVal.Store(r)
					}
					sh.stop.Store(true)
				}
			}()
			run := newWorker()
			for {
				if sh.stop.Load() {
					return
				}
				ti := int(next.Add(1)) - 1
				if ti >= tasks {
					return
				}
				sh.tasks.Add(1)
				sid := rec.Start(parent, obs.KindSubtree, "")
				run(ti)
				rec.End(sid)
			}
		}()
	}
	wg.Wait()
	if panicked.Load() {
		panic(panicVal.Load())
	}
}
