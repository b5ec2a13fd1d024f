package exact

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/obs"
)

// cutSlot is the per-cut bookkeeping of the joint multi-cut search. The
// invariants match singleCutSearch, maintained independently per cut.
type cutSlot struct {
	cut     *graph.BitSet
	blocked *graph.BitSet
	pending *graph.BitSet
	inputs  *graph.BitSet
	inCnt   int
	outCnt  int
	swSum   int
	hwCP    float64
	tail    []float64
}

// slotSave is one slot's rollback record for a decision at one depth.
type slotSave struct {
	wasPending   bool
	blockedSaved bool
}

// multiScratch is the per-depth scratch of the joint search: the rollback
// records and blocked-set snapshots for every slot. One slot per depth is
// enough (at most one frame is active per depth per worker), and reusing
// it removes the former per-branch Clone and save-list allocations.
type multiScratch struct {
	saves   []slotSave
	blocked []*graph.BitSet // lazily allocated snapshots
}

type multiCutSearch struct {
	opt      Options
	blk      *ir.Block
	dag      *graph.DAG
	order    []int
	frozen   *graph.BitSet
	swLat    []int
	hwLat    []float64
	suffixSW []int
	nise     int
	searchCtl

	slots []*cutSlot
	used  int // number of non-empty cuts so far (symmetry breaking)
	// tot is the summed merit of all slots, maintained incrementally on
	// include/rollback instead of recomputed per search node. Merits are
	// integer-valued floats (core.MeritOf), so the incremental sum is
	// exact and bit-identical to a recompute.
	tot     float64
	best    []*graph.BitSet
	bestTot float64

	scratch    []multiScratch
	inputsBuf  [][]int
	pendingBuf [][]int
}

// newMultiCutSearch builds the immutable preprocessing and one mutable
// search state.
func newMultiCutSearch(blk *ir.Block, opt Options, nise int, sh *sharedBound) *multiCutSearch {
	n := blk.N()
	s := &multiCutSearch{
		opt:       opt,
		blk:       blk,
		dag:       blk.DAG(),
		frozen:    graph.NewBitSet(n),
		swLat:     make([]int, n),
		hwLat:     make([]float64, n),
		nise:      nise,
		searchCtl: searchCtl{sh: sh},
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
func (s *multiCutSearch) initMutable() {
	n := s.blk.N()
	for k := 0; k < s.nise; k++ {
		s.slots = append(s.slots, &cutSlot{
			cut:     graph.NewBitSet(n),
			blocked: graph.NewBitSet(n),
			pending: graph.NewBitSet(n),
			inputs:  graph.NewBitSet(s.blk.NumValues()),
			tail:    make([]float64, n),
		})
		s.best = append(s.best, graph.NewBitSet(n))
	}
	s.scratch = make([]multiScratch, n)
	for i := range s.scratch {
		s.scratch[i].saves = make([]slotSave, s.nise)
		s.scratch[i].blocked = make([]*graph.BitSet, s.nise)
	}
	s.inputsBuf = make([][]int, n)
	s.pendingBuf = make([][]int, n)
}

// fork returns a search sharing s's immutable preprocessing (and shared
// bound) with fresh private mutable state — one per subtree worker.
func (s *multiCutSearch) fork() *multiCutSearch {
	w := &multiCutSearch{
		opt: s.opt, blk: s.blk, dag: s.dag, order: s.order,
		frozen: s.frozen, swLat: s.swLat, hwLat: s.hwLat,
		suffixSW: s.suffixSW, nise: s.nise, searchCtl: searchCtl{sh: s.sh},
	}
	w.initMutable()
	return w
}

// MultiCutContext implements the paper's "Exact" baseline: the joint
// optimal assignment of block nodes to at most nise disjoint feasible
// cuts, maximizing the summed merit. It is exponential in nodes × cuts and
// is only practical for small blocks; callers should set
// Options.NodeLimit (the paper's exact approach handled blocks of up to
// ~25 nodes). The joint search honors cancellation mid-block (checked
// every few thousand explored nodes) and returns ctx.Err().
func MultiCutContext(ctx context.Context, blk *ir.Block, opt Options, nise int) ([]*core.Cut, error) {
	if nise < 1 {
		return nil, fmt.Errorf("exact: nise = %d, must be at least 1", nise)
	}
	if err := checkOptions(&opt, blk); err != nil {
		return nil, err
	}
	ctx, sp := obs.StartSpan(ctx, obs.KindSearch, "multi-cut")
	defer sp.End()
	sh := newSharedBound(ctx, opt.Budget, opt.Bound)
	sh.bound.Raise(opt.SeedBound)
	s := newMultiCutSearch(blk, opt, nise, sh)
	best, err := s.run()
	sh.obsFlush(ctx)
	if opt.Explored != nil {
		*opt.Explored += sh.explored.Load()
	}
	if err != nil {
		return nil, err
	}
	var cuts []*core.Cut
	for _, b := range best {
		if b == nil || b.Empty() {
			continue
		}
		m := opt.metricsOf()(blk, opt.Model, b)
		cuts = append(cuts, &core.Cut{
			Block: blk, Nodes: b.Clone(),
			NumIn: m.NumIn, NumOut: m.NumOut, SWLat: m.SWLat, HWLat: m.HWLat,
		})
	}
	return cuts, nil
}

// run drives the joint search: single-threaded, or split + fan-out +
// deterministic merge (see singleCutSearch.run; the same three phases).
func (s *multiCutSearch) run() ([]*graph.BitSet, error) {
	n := len(s.order)
	w := s.opt.workersOf()
	d := splitDepthFor(s.opt.SplitDepth, w, n, s.nise+1)
	if w <= 1 || d < 1 || n < 4 {
		s.search(0)
		s.flush()
		if err := s.sh.err(); err != nil {
			return nil, err
		}
		return s.best, nil
	}

	var tasks [][]byte
	s.splitAt = d
	s.collect = func(p []byte) { tasks = append(tasks, p) }
	s.search(0)
	s.collect = nil
	s.flush()
	if err := s.sh.err(); err != nil {
		return nil, err
	}
	if len(tasks) == 0 {
		return s.best, nil
	}

	type result struct {
		tot   float64
		nodes []*graph.BitSet
	}
	results := make([]result, len(tasks))
	runSubtrees(s.sh, w, len(tasks), func() func(ti int) {
		ws := s.fork()
		return func(ti int) {
			ws.path = tasks[ti]
			ws.bestTot = 0
			ws.search(0)
			ws.flush()
			if !ws.stopped && ws.bestTot > 0 {
				nodes := make([]*graph.BitSet, len(ws.best))
				for k, b := range ws.best {
					nodes[k] = b.Clone()
				}
				results[ti] = result{tot: ws.bestTot, nodes: nodes}
			}
		}
	})
	if err := s.sh.err(); err != nil {
		return nil, err
	}

	var best []*graph.BitSet
	bestTot := 0.0
	for _, r := range results {
		if r.nodes != nil && r.tot > bestTot {
			bestTot, best = r.tot, r.nodes
		}
	}
	return best, nil
}

func (s *multiCutSearch) search(i int) {
	if !s.enter() {
		return
	}
	if i < len(s.path) {
		// Replay the subtree task's decision prefix (byte 0 = exclude,
		// byte k+1 = include in slot k).
		v := s.order[i]
		if b := s.path[i]; b == 0 {
			s.exclude(i, v)
		} else {
			s.include(i, v, int(b)-1)
		}
		return
	}
	cur := s.tot
	ub := cur + float64(s.suffixSW[i])
	if ub <= s.bestTot {
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
		if cur > s.bestTot {
			s.bestTot = cur
			for k, sl := range s.slots {
				s.best[k].CopyFrom(sl.cut)
			}
			s.sh.raise(cur)
		}
		return
	}
	v := s.order[i]
	if !s.frozen.Has(v) {
		// Symmetry breaking: only the first empty slot may be opened.
		lim := s.used
		if lim >= len(s.slots) {
			lim = len(s.slots) - 1
		}
		for k := 0; k <= lim; k++ {
			s.include(i, v, k)
		}
	}
	s.exclude(i, v)
}

// slotMerit is one slot's current merit contribution (0 for an empty slot:
// MeritOf(0, 0) == 0).
func slotMerit(sl *cutSlot) float64 {
	return core.MeritOf(sl.swSum, sl.hwCP)
}

// include tries assigning v to slot k; other slots see v as excluded.
func (s *multiCutSearch) include(i, v, k int) {
	sl := s.slots[k]
	if sl.blocked.Has(v) {
		return
	}
	blk := s.blk
	n := blk.N()

	isOut := blk.LiveOut.Has(v)
	if !isOut {
		for _, u := range blk.Uses(v) {
			if !sl.cut.Has(u) {
				isOut = true
				break
			}
		}
	}
	if blk.Nodes[v].Op.HasValue() && isOut && sl.outCnt+1 > s.opt.MaxOut {
		return
	}
	newInputs := s.inputsBuf[i][:0]
	for _, src := range blk.Srcs(v) {
		if src >= n && !sl.inputs.Has(src) {
			newInputs = append(newInputs, src)
		}
	}
	s.inputsBuf[i] = newInputs
	if sl.inCnt+len(newInputs) > s.opt.MaxIn {
		return
	}
	// For every OTHER slot, v is an outside node: a pending use there
	// becomes a permanent input. Pure feasibility pre-check — nothing is
	// committed yet.
	for j, osl := range s.slots {
		if j != k && osl.pending.Has(v) && osl.inCnt+1 > s.opt.MaxIn {
			return
		}
	}

	wasEmpty := sl.cut.Empty()
	wasPending := sl.pending.Has(v)

	// Commit slot k, tracking its merit delta incrementally.
	oldMerit := slotMerit(sl)
	sl.cut.Set(v)
	sl.swSum += s.swLat[v]
	outAdded := 0
	if blk.Nodes[v].Op.HasValue() && isOut {
		sl.outCnt++
		outAdded = 1
	}
	for _, src := range newInputs {
		sl.inputs.Set(src)
	}
	sl.inCnt += len(newInputs)
	pendingAdded := s.pendingBuf[i][:0]
	for _, src := range blk.Srcs(v) {
		if src < n && !sl.pending.Has(src) && !sl.cut.Has(src) {
			sl.pending.Set(src)
			pendingAdded = append(pendingAdded, src)
		}
	}
	s.pendingBuf[i] = pendingAdded
	if wasPending {
		sl.pending.Clear(v)
	}
	down := 0.0
	for _, u := range s.dag.Succs(v) {
		if sl.cut.Has(u) && sl.tail[u] > down {
			down = sl.tail[u]
		}
	}
	sl.tail[v] = s.hwLat[v] + down
	oldCP := sl.hwCP
	if sl.tail[v] > sl.hwCP {
		sl.hwCP = sl.tail[v]
	}
	if wasEmpty {
		s.used++
	}
	meritDelta := slotMerit(sl) - oldMerit
	s.tot += meritDelta

	// Commit other slots (v acts as excluded there); the per-depth
	// scratch replaces the former save-list and Clone allocations.
	sc := &s.scratch[i]
	for j, osl := range s.slots {
		sv := &sc.saves[j]
		sv.wasPending, sv.blockedSaved = false, false
		if j == k {
			continue
		}
		sv.wasPending = osl.pending.Has(v)
		if osl.cut.Intersects(s.dag.Desc(v)) || sv.wasPending {
			anc := s.dag.Anc(v)
			if !anc.SubsetOf(osl.blocked) {
				sv.blockedSaved = true
				s.saveSlotBlocked(sc, j, osl)
				osl.blocked.Or(anc)
			}
		}
		if sv.wasPending {
			osl.pending.Clear(v)
			osl.inputs.Set(v)
			osl.inCnt++
		}
	}

	if s.collect != nil {
		s.trace = append(s.trace, byte(k+1))
	}
	s.search(i + 1)
	if s.collect != nil {
		s.trace = s.trace[:len(s.trace)-1]
	}

	// Rollback others.
	for j, osl := range s.slots {
		if j == k {
			continue
		}
		sv := &sc.saves[j]
		if sv.wasPending {
			osl.inCnt--
			osl.inputs.Clear(v)
			osl.pending.Set(v)
		}
		if sv.blockedSaved {
			osl.blocked.CopyFrom(sc.blocked[j])
		}
	}
	// Rollback slot k.
	s.tot -= meritDelta
	if wasEmpty {
		s.used--
	}
	sl.hwCP = oldCP
	sl.tail[v] = 0
	if wasPending {
		sl.pending.Set(v)
	}
	for _, src := range pendingAdded {
		sl.pending.Clear(src)
	}
	sl.inCnt -= len(newInputs)
	for _, src := range newInputs {
		sl.inputs.Clear(src)
	}
	sl.outCnt -= outAdded
	sl.swSum -= s.swLat[v]
	sl.cut.Clear(v)
}

// saveSlotBlocked snapshots slot j's blocked set into depth scratch sc.
func (s *multiCutSearch) saveSlotBlocked(sc *multiScratch, j int, sl *cutSlot) {
	if sc.blocked[j] == nil {
		sc.blocked[j] = graph.NewBitSet(s.blk.N())
	}
	sc.blocked[j].CopyFrom(sl.blocked)
}

// exclude leaves v in software for every slot. Excluding changes no slot's
// swSum or hwCP, so the incremental total merit is untouched.
func (s *multiCutSearch) exclude(i, v int) {
	// Pure feasibility pre-check before any commit: a pending use of v
	// becomes a permanent input in its slot.
	for _, sl := range s.slots {
		if sl.pending.Has(v) && sl.inCnt+1 > s.opt.MaxIn {
			return
		}
	}
	sc := &s.scratch[i]
	for j, sl := range s.slots {
		sv := &sc.saves[j]
		sv.wasPending = sl.pending.Has(v)
		sv.blockedSaved = false
		if sl.cut.Intersects(s.dag.Desc(v)) || sv.wasPending {
			anc := s.dag.Anc(v)
			if !anc.SubsetOf(sl.blocked) {
				sv.blockedSaved = true
				s.saveSlotBlocked(sc, j, sl)
				sl.blocked.Or(anc)
			}
		}
		if sv.wasPending {
			sl.pending.Clear(v)
			sl.inputs.Set(v)
			sl.inCnt++
		}
	}

	if s.collect != nil {
		s.trace = append(s.trace, 0)
	}
	s.search(i + 1)
	if s.collect != nil {
		s.trace = s.trace[:len(s.trace)-1]
	}

	for j, sl := range s.slots {
		sv := &sc.saves[j]
		if sv.wasPending {
			sl.inCnt--
			sl.inputs.Clear(v)
			sl.pending.Set(v)
		}
		if sv.blockedSaved {
			sl.blocked.CopyFrom(sc.blocked[j])
		}
	}
}
