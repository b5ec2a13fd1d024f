// Package exact implements the optimal ISE identification baselines the
// paper compares against (its reference [3], Atasu/Pozzi/Ienne DAC 2003):
//
//   - SingleCutContext: exhaustive enumeration of the best single feasible cut of
//     a block, with the DAC'03 prunings (reverse-topological branching,
//     monotone output-port count, permanent-input count, convexity
//     blocking, merit upper bound);
//   - IterativeContext (iterative exact single-cut): repeatedly find the exact
//     best cut, freeze it and repeat — the paper's "Iterative";
//   - MultiCutContext: exact joint assignment of nodes to NISE cuts — the
//     paper's "Exact", practical only for small blocks.
//
// The joint search keeps every node set of its state (each cut, its
// convexity-blocked and pending nodes, and the per-node descendant,
// ancestor, use and source masks) in one uint64, and rolls a decision
// back by copying a per-depth snapshot of its slot array. It therefore
// refuses blocks over MaxJointNodes (64) with ErrTooLarge, whatever the
// node limit; the paper's joint search handled ~25 nodes. The single-cut
// searches use graph.BitSet and take blocks of any size.
//
// The joint search bounds each cut separately. An open cut gains at most
// the software latency of the undecided nodes it may still take (not
// convexity-blocked, and no would-be output once its outputs are full),
// and at most the best single cut with the same first node; a cut not yet
// opened gains at most the best single cut among the undecided nodes.
// Single-cut pre-searches on the same kernel compute those optima before
// the joint search starts, against a private bound and under the run's
// budget and context; at NISE 1 they find the answer themselves. The
// bound is admissible, so the cuts are those of the plain
// remaining-latency bound; only the tree is smaller (DESIGN.md, "The
// joint search's bound").
//
// All entry points refuse blocks beyond a configurable node limit and
// abort when a search-node budget is exhausted, mirroring the paper's
// observation that the exact approaches fail on large basic blocks such as
// AES (696 nodes).
//
// With Options.Workers > 1 the branch-and-bound fans out inside the block:
// the reverse-topological decision tree is split at a configurable depth
// into independent subtree tasks that run on a bounded worker pool against
// a shared atomic best-bound. Cross-subtree pruning is strict (ub < bound)
// while local pruning keeps the sequential rule (ub <= best), and winners
// merge in subtree enumeration order — together that makes the parallel
// result bit-identical to the sequential one (see DESIGN.md, "Determinism
// contract"). The Context entry points additionally honor cancellation
// inside the inner loops, checked every few thousand explored nodes.
package exact

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/latency"
	"repro/internal/obs"
)

// ErrTooLarge is returned when a block exceeds the configured node limit.
var ErrTooLarge = errors.New("exact: block exceeds node limit")

// ErrBudget is returned when the search-node budget is exhausted before
// the enumeration completes.
var ErrBudget = errors.New("exact: search budget exhausted")

// Options control the exact searches.
type Options struct {
	MaxIn, MaxOut int
	Model         *latency.Model
	// NodeLimit refuses larger blocks up front (0 = no limit).
	NodeLimit int
	// Budget bounds the number of explored search-tree nodes
	// (0 = no limit). Under parallel search the budget is shared across
	// all subtree workers (total explored nodes), so it still bounds the
	// run's work — but the parallel schedule charges more nodes than the
	// sequential one (prefix enumeration, per-task replay, weaker
	// cross-subtree pruning), so a run sitting near the boundary can
	// complete sequentially yet return ErrBudget in parallel. Treat the
	// budget as a resource failsafe, not a determinism-preserving knob:
	// the bit-identical guarantee below holds for runs that complete
	// within budget under the schedule in use.
	Budget int64
	// Workers bounds the in-block subtree worker pool of the branch-and-
	// bound. 0 and 1 select the single-threaded search (the historical
	// default); w > 1 splits the decision tree into subtree tasks run on
	// w workers with a shared best-bound. Completed runs are
	// bit-identical for every value — only wall-clock changes (see
	// Budget for the boundary carve-out). A negative value selects one
	// worker per CPU core.
	Workers int
	// SplitDepth is the decision depth at which the tree is split into
	// subtree tasks (parallel search only; 0 picks a depth yielding a
	// few tasks per worker). Results are identical for every depth.
	SplitDepth int
	// Metrics costs the finished (winning) cuts — it is not on the
	// branch-and-bound hot path, which keeps its own incremental
	// bookkeeping. The search layer installs its shared memoized cache
	// here so exact winners land in (and are served from) the same
	// cache the other engines cost cuts through.
	Metrics core.MetricsFunc
	// SeedBound pre-loads the shared best-bound before the search starts
	// (0 = unseeded). It MUST be a merit some feasible assignment of the
	// search actually achieves (e.g. the summed merit of K-L's disjoint
	// feasible cuts for MultiCutContext): pruning against the bound is strict
	// (ub < bound), so any seed <= the optimum leaves the result
	// bit-identical to an unseeded run while pruning strictly-worse
	// subtrees from step one. A seed above the optimum silently discards
	// the optimum. Explored-node counts DO change with the seed, so a run
	// sitting near the Budget boundary may complete seeded and return
	// ErrBudget unseeded (or vice versa) — the bit-identical guarantee is
	// for runs that complete within budget.
	SeedBound float64
	// Bound, when non-nil, is the run's shared best-bound object itself:
	// external producers may keep raising it (Bound.Raise) while the
	// search runs, tightening the pruning mid-flight through the same CAS
	// path the search's own workers publish through. The soundness rule
	// is SeedBound's: only publish merits some feasible assignment
	// achieves. SeedBound, when also set, is folded into it at start.
	Bound *Bound
}

// metricsOf resolves the costing function.
func (o *Options) metricsOf() core.MetricsFunc {
	if o.Metrics != nil {
		return o.Metrics
	}
	return core.MetricsOf
}

// workersOf resolves the subtree worker count: <= 1 is the sequential
// path, negative means one worker per CPU core.
func (o *Options) workersOf() int {
	if o.Workers < 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

// singleCutSearch carries the branch-and-bound state for one block. The
// preprocessing fields (down to suffixSW) are immutable after construction
// and shared read-only across subtree workers via fork; everything below
// is worker-private mutable search state.
type singleCutSearch struct {
	opt    Options
	blk    *ir.Block
	dag    *graph.DAG
	order  []int // reverse topological order
	frozen *graph.BitSet
	swLat  []int
	hwLat  []float64
	// suffixSW[i] = Σ software latency of non-frozen nodes order[i:].
	suffixSW []int
	searchCtl

	// Search state.
	cut     *graph.BitSet
	blocked *graph.BitSet
	pending *graph.BitSet // node values consumed by the cut, producer undecided
	inputs  *graph.BitSet // permanent input values (value ID space)
	inCnt   int
	outCnt  int
	swSum   int
	tail    []float64 // HW path from node downward within cut
	hwCP    float64

	// Per-depth scratch replacing the former allocation hot spots: the
	// blocked-set snapshot Clone per exclude branch and the newInputs /
	// pendingAdded slices per include branch. At any instant depth i has
	// at most one active frame per worker, so one slot per depth is
	// enough; buffers keep their grown capacity across branches.
	blockedSave []*graph.BitSet // lazily allocated
	inputsBuf   [][]int
	pendingBuf  [][]int

	best      *graph.BitSet
	bestMerit float64
}

// newSingleCutSearch builds the immutable preprocessing and one mutable
// search state for the block.
func newSingleCutSearch(blk *ir.Block, opt Options, excluded *graph.BitSet, sh *sharedBound) *singleCutSearch {
	n := blk.N()
	s := &singleCutSearch{
		opt:       opt,
		blk:       blk,
		dag:       blk.DAG(),
		frozen:    graph.NewBitSet(n),
		swLat:     make([]int, n),
		hwLat:     make([]float64, n),
		searchCtl: searchCtl{sh: sh},
	}
	if excluded != nil {
		s.frozen.Or(excluded)
	}
	for v := 0; v < n; v++ {
		op := blk.Nodes[v].Op
		s.swLat[v] = opt.Model.SWLat(op)
		if d, ok := opt.Model.HWLat(op); ok {
			s.hwLat[v] = d
		} else {
			s.frozen.Set(v)
		}
		if blk.ForbiddenInCut(v) {
			s.frozen.Set(v)
		}
	}
	topo := s.dag.Topo()
	s.order = make([]int, n)
	for i, v := range topo {
		s.order[n-1-i] = v
	}
	s.suffixSW = make([]int, n+1)
	for i := n - 1; i >= 0; i-- {
		s.suffixSW[i] = s.suffixSW[i+1]
		if !s.frozen.Has(s.order[i]) {
			s.suffixSW[i] += s.swLat[s.order[i]]
		}
	}
	s.initMutable()
	return s
}

// initMutable allocates the worker-private search state.
func (s *singleCutSearch) initMutable() {
	n := s.blk.N()
	s.cut = graph.NewBitSet(n)
	s.blocked = graph.NewBitSet(n)
	s.pending = graph.NewBitSet(n)
	s.inputs = graph.NewBitSet(s.blk.NumValues())
	s.tail = make([]float64, n)
	s.best = graph.NewBitSet(n)
	s.blockedSave = make([]*graph.BitSet, n)
	s.inputsBuf = make([][]int, n)
	s.pendingBuf = make([][]int, n)
}

// fork returns a search sharing s's immutable preprocessing (and shared
// bound) with fresh private mutable state — one per subtree worker.
func (s *singleCutSearch) fork() *singleCutSearch {
	w := &singleCutSearch{
		opt: s.opt, blk: s.blk, dag: s.dag, order: s.order,
		frozen: s.frozen, swLat: s.swLat, hwLat: s.hwLat,
		suffixSW: s.suffixSW, searchCtl: searchCtl{sh: s.sh},
	}
	w.initMutable()
	return w
}

// saveBlocked snapshots the blocked set into depth i's scratch slot.
func (s *singleCutSearch) saveBlocked(i int) *graph.BitSet {
	sv := s.blockedSave[i]
	if sv == nil {
		sv = graph.NewBitSet(s.blk.N())
		s.blockedSave[i] = sv
	}
	sv.CopyFrom(s.blocked)
	return sv
}

// SingleCutContext returns the feasible cut of the block maximizing merit
// λ(C) = latSW(C) − latHW(C), or nil when no cut has positive merit. Nodes
// in excluded (may be nil) cannot join the cut. The branch-and-bound
// honors cancellation mid-search (checked every few thousand explored
// nodes) and returns ctx.Err().
func SingleCutContext(ctx context.Context, blk *ir.Block, opt Options, excluded *graph.BitSet) (*core.Cut, error) {
	if err := checkOptions(&opt, blk); err != nil {
		return nil, err
	}
	ctx, sp := obs.StartSpan(ctx, obs.KindSearch, "single-cut")
	defer sp.End()
	sh := newSharedBound(ctx, opt.Budget, opt.Bound)
	sh.bound.Raise(opt.SeedBound)
	s := newSingleCutSearch(blk, opt, excluded, sh)
	best, bestMerit, err := s.run()
	sh.obsFlush(ctx)
	if err != nil {
		return nil, err
	}
	if best == nil || best.Empty() || bestMerit <= 0 {
		return nil, nil
	}
	m := opt.metricsOf()(blk, opt.Model, best)
	return &core.Cut{
		Block:  blk,
		Nodes:  best.Clone(),
		NumIn:  m.NumIn,
		NumOut: m.NumOut,
		SWLat:  m.SWLat,
		HWLat:  m.HWLat,
	}, nil
}

// run drives the search: single-threaded when the pool is not requested
// (or the block is too small to split), otherwise split + fan-out + merge.
func (s *singleCutSearch) run() (*graph.BitSet, float64, error) {
	n := len(s.order)
	w := s.opt.workersOf()
	d := splitDepthFor(s.opt.SplitDepth, w, n, 2)
	if w <= 1 || d < 1 || n < 4 {
		s.search(0)
		s.flush()
		if err := s.sh.err(); err != nil {
			return nil, 0, err
		}
		return s.best, s.bestMerit, nil
	}

	// Phase 1: enumerate the decision prefixes of depth d — the subtree
	// tasks, in DFS order (include explored before exclude, exactly the
	// sequential visit order, which is what makes the merge tie-break
	// reproduce the sequential winner).
	var tasks [][]byte
	s.splitAt = d
	s.collect = func(p []byte) { tasks = append(tasks, p) }
	s.search(0)
	s.collect = nil
	s.flush()
	if err := s.sh.err(); err != nil {
		return nil, 0, err
	}
	if len(tasks) == 0 {
		return s.best, s.bestMerit, nil // everything pruned at the root
	}

	// Phase 2: run the subtree tasks on the pool. Each worker replays a
	// task's prefix on private state, explores its subtree pruning
	// against the shared bound, and records its local first-best.
	type result struct {
		merit float64
		nodes *graph.BitSet
	}
	results := make([]result, len(tasks))
	runSubtrees(s.sh, w, len(tasks), func() func(ti int) {
		ws := s.fork()
		return func(ti int) {
			ws.path = tasks[ti]
			ws.bestMerit = 0
			ws.search(0)
			ws.flush()
			if !ws.stopped && ws.bestMerit > 0 {
				results[ti] = result{merit: ws.bestMerit, nodes: ws.best.Clone()}
			}
		}
	})
	if err := s.sh.err(); err != nil {
		return nil, 0, err
	}

	// Phase 3: deterministic merge — first task (in DFS prefix order)
	// achieving the maximum merit wins, matching the sequential
	// first-improvement rule.
	var best *graph.BitSet
	bestMerit := 0.0
	for _, r := range results {
		if r.nodes != nil && r.merit > bestMerit {
			bestMerit, best = r.merit, r.nodes
		}
	}
	return best, bestMerit, nil
}

func checkOptions(opt *Options, blk *ir.Block) error {
	if opt.Model == nil {
		return fmt.Errorf("exact: Options.Model is nil")
	}
	if opt.MaxIn < 1 || opt.MaxOut < 1 {
		return fmt.Errorf("exact: I/O constraints (%d,%d) must be at least (1,1)", opt.MaxIn, opt.MaxOut)
	}
	if opt.SplitDepth < 0 {
		return fmt.Errorf("exact: SplitDepth = %d, must be non-negative", opt.SplitDepth)
	}
	// A NaN seed would poison the monotone CAS comparisons; a negative or
	// infinite one is never the merit of a feasible assignment.
	if opt.SeedBound < 0 || math.IsNaN(opt.SeedBound) || math.IsInf(opt.SeedBound, 0) {
		return fmt.Errorf("exact: SeedBound = %g, must be finite and non-negative", opt.SeedBound)
	}
	if opt.NodeLimit > 0 && blk.N() > opt.NodeLimit {
		return fmt.Errorf("%w: %d nodes > limit %d", ErrTooLarge, blk.N(), opt.NodeLimit)
	}
	return opt.Model.Validate(blk)
}

// search explores decisions for order[i:]. All constraint bookkeeping is
// exact for the decided prefix; see the package comment for the pruning
// rules.
func (s *singleCutSearch) search(i int) {
	if !s.enter() {
		return
	}
	if i < len(s.path) {
		// Replay the subtree task's decision prefix: the same state
		// evolution the enumeration committed, so every decision is
		// known feasible.
		v := s.order[i]
		if s.path[i] == 1 {
			s.branchInclude(i, v)
		} else {
			s.branchExclude(i, v)
		}
		return
	}
	// Merit upper bound: every remaining non-frozen node could join with
	// no critical-path growth. The local comparison keeps the sequential
	// first-improvement rule (<=); against the shared cross-subtree bound
	// only strictly-hopeless subtrees are pruned (<), so an equal-merit
	// cut in an earlier subtree still surfaces and the merge tie-break
	// stays bit-identical to the sequential order.
	ub := core.MeritOf(s.swSum+s.suffixSW[i], s.hwCP)
	if ub <= s.bestMerit {
		s.prunedLocal++
		return
	}
	if ub < s.sh.best() {
		s.prunedShared++
		return
	}
	if s.collect != nil && i == s.splitAt {
		s.collect(append([]byte(nil), s.trace...))
		return
	}
	if i == len(s.order) {
		merit := core.MeritOf(s.swSum, s.hwCP)
		if merit > s.bestMerit && !s.cut.Empty() {
			s.bestMerit = merit
			s.best.CopyFrom(s.cut)
			s.sh.raise(merit)
		}
		return
	}
	v := s.order[i]
	if !s.frozen.Has(v) && !s.blocked.Has(v) {
		s.branchInclude(i, v)
	}
	s.branchExclude(i, v)
}

func (s *singleCutSearch) branchInclude(i, v int) {
	blk := s.blk
	n := blk.N()

	// Output count: v's consumers are all decided (reverse topological
	// order), so v's output status is final.
	isOut := blk.LiveOut.Has(v)
	if !isOut {
		for _, u := range blk.Uses(v) {
			if !s.cut.Has(u) {
				isOut = true
				break
			}
		}
	}
	if blk.Nodes[v].Op.HasValue() && isOut && s.outCnt+1 > s.opt.MaxOut {
		return
	}
	// Permanent inputs: external input sources join immediately; node
	// sources are undecided (producers come later) and go to pending.
	newInputs := s.inputsBuf[i][:0]
	for _, src := range blk.Srcs(v) {
		if src >= n && !s.inputs.Has(src) {
			newInputs = append(newInputs, src)
		}
	}
	s.inputsBuf[i] = newInputs
	if s.inCnt+len(newInputs) > s.opt.MaxIn {
		return
	}
	// v itself may have been consumed by the cut; joining resolves the
	// pending use with no input.
	wasPending := s.pending.Has(v)

	// Commit.
	s.cut.Set(v)
	s.swSum += s.swLat[v]
	outAdded := 0
	if blk.Nodes[v].Op.HasValue() && isOut {
		s.outCnt++
		outAdded = 1
	}
	for _, src := range newInputs {
		s.inputs.Set(src)
	}
	s.inCnt += len(newInputs)
	pendingAdded := s.pendingBuf[i][:0]
	for _, src := range blk.Srcs(v) {
		if src < n && !s.pending.Has(src) && !s.cut.Has(src) {
			s.pending.Set(src)
			pendingAdded = append(pendingAdded, src)
		}
	}
	s.pendingBuf[i] = pendingAdded
	if wasPending {
		s.pending.Clear(v)
	}
	t := s.hwLat[v]
	down := 0.0
	for _, u := range s.dag.Succs(v) {
		if s.cut.Has(u) && s.tail[u] > down {
			down = s.tail[u]
		}
	}
	s.tail[v] = t + down
	oldCP := s.hwCP
	if s.tail[v] > s.hwCP {
		s.hwCP = s.tail[v]
	}

	if s.collect != nil {
		s.trace = append(s.trace, 1)
	}
	s.search(i + 1)
	if s.collect != nil {
		s.trace = s.trace[:len(s.trace)-1]
	}

	// Rollback.
	s.hwCP = oldCP
	s.tail[v] = 0
	if wasPending {
		s.pending.Set(v)
	}
	for _, src := range pendingAdded {
		s.pending.Clear(src)
	}
	s.inCnt -= len(newInputs)
	for _, src := range newInputs {
		s.inputs.Clear(src)
	}
	s.outCnt -= outAdded
	s.swSum -= s.swLat[v]
	s.cut.Clear(v)
}

func (s *singleCutSearch) branchExclude(i, v int) {
	// Excluding v: a pending use becomes a permanent input.
	wasPending := s.pending.Has(v)
	if wasPending && s.inCnt+1 > s.opt.MaxIn {
		return
	}
	var savedBlocked *graph.BitSet
	if s.dag.Desc(v).Intersects(s.cut) || wasPending {
		// v is outside the cut with a descendant inside (a pending use
		// implies a cut consumer, i.e. a cut descendant): every
		// ancestor of v must stay outside or the cut becomes
		// non-convex.
		anc := s.dag.Anc(v)
		if !anc.SubsetOf(s.blocked) {
			savedBlocked = s.saveBlocked(i)
			s.blocked.Or(anc)
		}
	}
	if wasPending {
		s.pending.Clear(v)
		s.inputs.Set(v)
		s.inCnt++
	}

	if s.collect != nil {
		s.trace = append(s.trace, 0)
	}
	s.search(i + 1)
	if s.collect != nil {
		s.trace = s.trace[:len(s.trace)-1]
	}

	if wasPending {
		s.inCnt--
		s.inputs.Clear(v)
		s.pending.Set(v)
	}
	if savedBlocked != nil {
		s.blocked.CopyFrom(savedBlocked)
	}
}

// IterativeContext implements the paper's "Iterative" baseline: the exact
// best single cut is identified, its nodes are frozen, and the process
// repeats until nise cuts are found or no positive-merit cut remains. On
// cancellation (see SingleCutContext) the cuts found before the abort are
// returned alongside ctx.Err().
//
// Seeding (Options.SeedBound, Options.Bound) is rejected: each round is a
// fresh single-cut search whose own optimum shrinks as nodes freeze, so no
// single external merit is a sound bound for every round — a joint-merit
// seed (the only kind a producer like K-L can certify) belongs to
// MultiCutContext.
func IterativeContext(ctx context.Context, blk *ir.Block, opt Options, nise int) ([]*core.Cut, error) {
	if nise < 1 {
		return nil, fmt.Errorf("exact: nise = %d, must be at least 1", nise)
	}
	if opt.SeedBound != 0 || opt.Bound != nil {
		return nil, fmt.Errorf("exact: Iterative cannot be bound-seeded (per-round optima shrink; seed MultiCutContext instead)")
	}
	excluded := graph.NewBitSet(blk.N())
	var cuts []*core.Cut
	for len(cuts) < nise {
		cut, err := SingleCutContext(ctx, blk, opt, excluded)
		if err != nil {
			return cuts, err
		}
		if cut == nil {
			break
		}
		cuts = append(cuts, cut)
		excluded.Or(cut.Nodes)
	}
	return cuts, nil
}
