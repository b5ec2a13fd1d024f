package exact

import (
	"context"
	"fmt"
	"math/bits"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/obs"
)

// MaxJointNodes is the largest block the joint search accepts, whatever
// Options.NodeLimit says: every node set of its state is one machine word.
// The paper's joint search handled ~25 nodes.
const MaxJointNodes = 64

// CheckJointSize refuses, with ErrTooLarge, a block over nodeLimit (0 = no
// limit) or over MaxJointNodes. MultiCutContext applies it up front; the
// racing engine calls it before spawning its heuristic racers.
func CheckJointSize(blk *ir.Block, nodeLimit int) error {
	if n := blk.N(); n > MaxJointNodes {
		return fmt.Errorf("%w: %d nodes > joint-search cap %d", ErrTooLarge, n, MaxJointNodes)
	} else if nodeLimit > 0 && n > nodeLimit {
		return fmt.Errorf("%w: %d nodes > limit %d", ErrTooLarge, n, nodeLimit)
	}
	return nil
}

// jointTables is the per-block preprocessing of the joint search, one
// word per node set (bit v = node v). Only m1at and m1suf change after
// construction, and only during the pre-searches, which finish before any
// subtree worker starts; from then on the tables are shared read-only by
// every worker.
type jointTables struct {
	order    []int // reverse topological order
	swLat    []int
	hwLat    []float64
	suffixSW []int    // suffixSW[i] = Σ software latency of non-frozen order[i:]
	rem      []uint64 // rem[i] = non-frozen nodes of order[i:]
	// m1at[i] bounds the merit of any feasible cut inside order[i:] that
	// holds order[i], and m1suf[i] that of any feasible cut inside
	// order[i:]. Both start at suffixSW[i]; singleCutOptima replaces them
	// with the exact optima. m1suf[0] is M1, the best single cut.
	m1at, m1suf []int
	// swPlane[j] holds the nodes whose software latency has bit j set,
	// so the SW sum of a node set m is Σ_j popcount(m & swPlane[j]) << j.
	swPlane []uint64

	desc, anc []uint64 // transitive successors / predecessors of node v
	uses      []uint64 // consumer nodes of value v (node or external input)
	srcs      []uint64 // node sources of node v
	succs     []uint64 // direct DAG successors of node v
	extSrcs   [][]int  // external-input value IDs read by node v

	liveOut, hasValue, frozen uint64
}

func newJointTables(blk *ir.Block, opt *Options) *jointTables {
	n := blk.N()
	dag := blk.DAG()
	t := &jointTables{
		order:    make([]int, n),
		swLat:    make([]int, n),
		hwLat:    make([]float64, n),
		suffixSW: make([]int, n+1),
		rem:      make([]uint64, n+1),
		m1at:     make([]int, n+1),
		m1suf:    make([]int, n+1),
		desc:     make([]uint64, n),
		anc:      make([]uint64, n),
		uses:     make([]uint64, blk.NumValues()),
		srcs:     make([]uint64, n),
		succs:    make([]uint64, n),
		extSrcs:  make([][]int, n),
	}
	for v := 0; v < n; v++ {
		op := blk.Nodes[v].Op
		t.swLat[v] = opt.Model.SWLat(op)
		if d, ok := opt.Model.HWLat(op); ok {
			t.hwLat[v] = d
		} else {
			t.frozen |= 1 << v
		}
		if blk.ForbiddenInCut(v) {
			t.frozen |= 1 << v
		}
		if blk.LiveOut.Has(v) {
			t.liveOut |= 1 << v
		}
		if op.HasValue() {
			t.hasValue |= 1 << v
		}
		t.desc[v] = word(dag.Desc(v))
		t.anc[v] = word(dag.Anc(v))
		for _, u := range dag.Succs(v) {
			t.succs[v] |= 1 << u
		}
		for _, src := range blk.Srcs(v) {
			if src < n {
				t.srcs[v] |= 1 << src
			} else {
				t.extSrcs[v] = append(t.extSrcs[v], src)
			}
		}
	}
	for x := range t.uses {
		for _, u := range blk.Uses(x) {
			t.uses[x] |= 1 << u
		}
	}
	for i, v := range dag.Topo() {
		t.order[n-1-i] = v
	}
	for i := n - 1; i >= 0; i-- {
		t.suffixSW[i] = t.suffixSW[i+1]
		t.rem[i] = t.rem[i+1]
		if v := t.order[i]; t.frozen&(1<<v) == 0 {
			t.suffixSW[i] += t.swLat[v]
			t.rem[i] |= 1 << v
		}
		t.m1at[i], t.m1suf[i] = t.suffixSW[i], t.suffixSW[i]
	}
	for m := t.rem[0]; m != 0; m &= m - 1 {
		v := bits.TrailingZeros64(m)
		for j := 0; t.swLat[v]>>j != 0; j++ {
			if j == len(t.swPlane) {
				t.swPlane = append(t.swPlane, 0)
			}
			if t.swLat[v]>>j&1 != 0 {
				t.swPlane[j] |= 1 << v
			}
		}
	}
	return t
}

// swOf returns the summed software latency of node set m.
func (t *jointTables) swOf(m uint64) int {
	sum := 0
	for j, p := range t.swPlane {
		sum += bits.OnesCount64(m&p) << j
	}
	return sum
}

// word returns a set over at most 64 elements as one word.
func word(b *graph.BitSet) uint64 {
	if w := b.Words(); len(w) > 0 {
		return w[0]
	}
	return 0
}

// slot is one cut of the joint search. The invariants match
// singleCutSearch's, maintained independently per cut: pending holds the
// nodes whose value the cut consumes while their own decision is still
// open; blocked the nodes that may no longer join (convexity); feeds the
// sources of nodes decided outside the cut, which would join only as new
// outputs. The cut's external inputs are not stored: input x is in the
// cut's input set exactly when uses[x]&cut != 0, which works for any
// input count. merit is the cut's core.MeritOf(swSum, hwCP).
type slot struct {
	cut, blocked, pending, feeds uint64
	inCnt, outCnt, merit, cap    int
	hwCP                         float64
}

// multiCutSearch is one worker's joint search over the shared tables.
type multiCutSearch struct {
	*jointTables
	maxIn, maxOut int
	searchCtl

	slots []slot
	// tails[k][v] is the HW path from v downward within slot k's cut. It
	// is read only for cut nodes and written when a node joins, so
	// rollback need not restore it; keeping it out of slot leaves slot
	// pointer-free, which makes the snapshot copies plain memmoves.
	tails [][]float64
	// snap[i] is the slot array as search(i) entered it: every decision
	// at depth i rolls back with one copy.
	snap [][]slot
	used int // number of non-empty cuts so far (symmetry breaking)
	// tot is the summed merit (core.MeritOf) of all slots, maintained
	// incrementally. Merits are integer-valued floats, so the sum is
	// exact and bit-identical to a recompute.
	tot     float64
	best    []uint64
	bestTot float64
}

// newWorker allocates one worker's private search state.
func newWorker(t *jointTables, opt *Options, nise int, sh *sharedBound) *multiCutSearch {
	n := len(t.order)
	s := &multiCutSearch{
		jointTables: t, maxIn: opt.MaxIn, maxOut: opt.MaxOut,
		searchCtl: searchCtl{sh: sh},
		slots:     make([]slot, nise),
		tails:     make([][]float64, nise),
		snap:      make([][]slot, n),
		best:      make([]uint64, nise),
	}
	for k := range s.tails {
		s.tails[k] = make([]float64, n)
	}
	for i := range s.snap {
		s.snap[i] = make([]slot, nise)
	}
	return s
}

// MultiCutContext implements the paper's "Exact" baseline: the joint
// optimal assignment of block nodes to at most nise disjoint feasible
// cuts, maximizing the summed merit. It is exponential in nodes × cuts and
// is only practical for small blocks; callers should set
// Options.NodeLimit (the paper's exact approach handled blocks of up to
// ~25 nodes). Blocks over MaxJointNodes are refused with ErrTooLarge
// whatever the limit. The joint search honors cancellation mid-block
// (checked every few thousand explored nodes) and returns ctx.Err().
func MultiCutContext(ctx context.Context, blk *ir.Block, opt Options, nise int) ([]*core.Cut, error) {
	if nise < 1 {
		return nil, fmt.Errorf("exact: nise = %d, must be at least 1", nise)
	}
	if err := checkOptions(&opt, blk); err != nil {
		return nil, err
	}
	if err := CheckJointSize(blk, 0); err != nil {
		return nil, err
	}
	ctx, sp := obs.StartSpan(ctx, obs.KindSearch, "multi-cut")
	defer sp.End()
	sh := newSharedBound(ctx, opt.Budget, opt.Bound)
	sh.bound.Raise(opt.SeedBound)
	s := newWorker(newJointTables(blk, &opt), &opt, nise, sh)
	best, err := s.run(&opt)
	sh.obsFlush(ctx)
	if err != nil {
		return nil, err
	}
	var cuts []*core.Cut
	for _, w := range best {
		if w == 0 {
			continue
		}
		b := graph.NewBitSet(blk.N())
		for ; w != 0; w &= w - 1 {
			b.Set(bits.TrailingZeros64(w))
		}
		m := opt.metricsOf()(blk, opt.Model, b)
		cuts = append(cuts, &core.Cut{
			Block: blk, Nodes: b,
			NumIn: m.NumIn, NumOut: m.NumOut, SWLat: m.SWLat, HWLat: m.HWLat,
		})
	}
	return cuts, nil
}

// singleCutOptima replaces m1at and m1suf with exact single-cut optima: for
// i from n−1 down to 0 it opens one slot with order[i] and searches
// order[i+1:] for the best cut holding it; m1suf[i] is the larger of that
// and m1suf[i+1]. Each cut has exactly one first node in the search
// order, so together the anchored searches cover every cut once. They
// reuse this worker's buffers and prune against a private bound, reset per
// anchor, never against the run's: their leaves are single cuts, which
// say nothing about what the joint search or a racing producer may
// publish. They run under the run's context and budget, and their nodes
// count as explored. They are skipped when the cheap bound already prunes
// the root; ran reports whether they ran.
//
// first is the best cut of the smallest anchor reaching M1, as its anchored
// search found it first. At NISE 1 that is the joint search's answer: the
// joint DFS tries order[i] in the cut before leaving it out, so it meets
// every cut anchored at i before any anchored later, and below the anchor
// it walks the same decisions in the same order, so the first optimal leaf
// of either search is the same under any admissible bound.
func (s *multiCutSearch) singleCutOptima() (first uint64, ran bool, err error) {
	main := s.sh
	if ub := float64(s.suffixSW[0]); ub <= 0 || ub < main.best() {
		return 0, false, nil
	}
	pre := newSharedBound(main.ctx, main.budget, nil)
	nise := len(s.slots)
	s.sh, s.slots = pre, s.slots[:1]
	for i := len(s.order) - 1; i >= 0 && !s.stopped; i-- {
		at := 0 // a frozen node opens no cut
		if v := s.order[i]; s.frozen&(1<<v) == 0 {
			s.slots[0] = slot{}
			s.used, s.tot, s.bestTot = 0, 0, 0
			pre.bound.merit.Store(0)
			copy(s.snap[i], s.slots)
			s.include(i, v, 0)
			at = int(s.bestTot)
		}
		if at > 0 && at >= s.m1suf[i+1] {
			first = s.best[0]
		}
		s.m1at[i], s.m1suf[i] = at, max(s.m1suf[i+1], at)
	}
	s.flush()
	s.sh, s.slots = main, s.slots[:nise]
	s.slots[0] = slot{}
	s.used, s.tot, s.bestTot = 0, 0, 0
	clear(s.best)
	main.explored.Add(pre.explored.Load())
	main.prunedLocal.Add(pre.prunedLocal.Load())
	main.prunedShared.Add(pre.prunedShared.Load())
	return first, true, pre.err()
}

// run drives the joint search after the single-cut pre-searches:
// single-threaded, or split + fan-out + deterministic merge (see
// singleCutSearch.run; the same three phases). At NISE 1 the pre-searches
// have already found the answer, so no joint search follows them.
func (s *multiCutSearch) run(opt *Options) ([]uint64, error) {
	first, ran, err := s.singleCutOptima()
	if err != nil {
		return nil, err
	}
	if ran && len(s.slots) == 1 {
		if first != 0 {
			s.sh.raise(float64(s.m1suf[0]))
		}
		s.best[0] = first
		return s.best, nil
	}
	n := len(s.order)
	nise := len(s.slots)
	w := opt.workersOf()
	d := splitDepthFor(opt.SplitDepth, w, n, nise+1)
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
		nodes []uint64
	}
	results := make([]result, len(tasks))
	runSubtrees(s.sh, w, len(tasks), func() func(ti int) {
		ws := newWorker(s.jointTables, opt, nise, s.sh)
		return func(ti int) {
			ws.path = tasks[ti]
			ws.bestTot = 0
			ws.search(0)
			ws.flush()
			if !ws.stopped && ws.bestTot > 0 {
				results[ti] = result{tot: ws.bestTot, nodes: append([]uint64(nil), ws.best...)}
			}
		}
	})
	if err := s.sh.err(); err != nil {
		return nil, err
	}

	var best []uint64
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
		copy(s.snap[i], s.slots)
		v := s.order[i]
		if b := s.path[i]; b == 0 {
			s.exclude(i, v)
		} else {
			s.include(i, v, int(b)-1)
		}
		return
	}
	// The remaining-latency bound costs one load; the slot-wise bound is
	// evaluated only where that one does not prune already.
	cur := s.tot
	ub := cur + float64(s.suffixSW[i])
	if ub > s.bestTot && ub >= s.sh.best() {
		ub = min(ub, s.slotBound(i))
	}
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
			for k := range s.slots {
				s.best[k] = s.slots[k].cut
			}
			s.sh.raise(cur)
		}
		return
	}
	copy(s.snap[i], s.slots)
	v := s.order[i]
	if s.frozen&(1<<v) == 0 {
		// Symmetry breaking: only the first empty slot may be opened.
		lim := min(s.used, len(s.slots)-1)
		for k := 0; k <= lim; k++ {
			s.include(i, v, k)
		}
	}
	s.exclude(i, v)
}

// slotBound bounds the summed merit of any completion of the assignment
// at depth i, slot by slot. A node that joins a cut raises its merit by
// at most its software latency, and only the non-frozen nodes of order[i:]
// outside the cut's blocked set can still join; a cut already at maxOut
// cannot take a node that would be an output. That bounds each open cut
// alone, and, since a node joins at most one cut, all open cuts together.
// A cut opened at depth j lies inside order[j:] and holds order[j], so its
// merit stays at most m1at[j] (its cap); a cut not yet opened lies inside
// order[i:], so its merit is at most m1suf[i].
func (s *multiCutSearch) slotBound(i int) float64 {
	rem := s.rem[i]
	each, free := 0, uint64(0)
	for k := range s.used {
		sl := &s.slots[k]
		f := rem &^ sl.blocked
		if sl.outCnt == s.maxOut {
			f &^= s.hasValue & (s.liveOut | sl.feeds)
		}
		free |= f
		each += min(sl.cap, sl.merit+s.swOf(f))
	}
	open := min(float64(each), s.tot+float64(s.swOf(free)))
	return open + float64((len(s.slots)-s.used)*s.m1suf[i])
}

// include tries assigning v to slot k; other slots see v as excluded.
func (s *multiCutSearch) include(i, v, k int) {
	bit := uint64(1) << v
	sl := &s.slots[k]
	if sl.blocked&bit != 0 {
		return
	}
	// v's consumers are all decided (reverse topological order), so its
	// output status is final.
	isOut := s.hasValue&bit != 0 && (s.liveOut&bit != 0 || s.uses[v]&^sl.cut != 0)
	if isOut && sl.outCnt+1 > s.maxOut {
		return
	}
	newIn := 0
	for _, x := range s.extSrcs[v] {
		if s.uses[x]&sl.cut == 0 {
			newIn++
		}
	}
	if sl.inCnt+newIn > s.maxIn {
		return
	}
	// For every other slot v is an outside node: a pending use there
	// becomes a permanent input. Pure feasibility pre-check.
	for j := range s.slots {
		if j != k && s.slots[j].pending&bit != 0 && s.slots[j].inCnt+1 > s.maxIn {
			return
		}
	}

	tot, used := s.tot, s.used
	if sl.cut == 0 {
		s.used++
		sl.cap = s.m1at[i]
	}
	sl.cut |= bit
	if isOut {
		sl.outCnt++
	}
	sl.inCnt += newIn
	sl.pending = (sl.pending | s.srcs[v]&^sl.cut) &^ bit
	// The slot's merit core.MeritOf(swSum, hwCP) grows by v's software
	// latency less the HW cycles its critical path gains.
	delta := s.swLat[v]
	tail := s.tails[k]
	down := 0.0
	for m := s.succs[v] & sl.cut; m != 0; m &= m - 1 {
		if t := tail[bits.TrailingZeros64(m)]; t > down {
			down = t
		}
	}
	tail[v] = s.hwLat[v] + down
	if tail[v] > sl.hwCP {
		delta -= core.HWCycles(tail[v]) - core.HWCycles(sl.hwCP)
		sl.hwCP = tail[v]
	}
	sl.merit += delta
	s.tot += float64(delta)
	for j := range s.slots {
		if j != k {
			s.leave(&s.slots[j], v, bit)
		}
	}
	s.descend(i, byte(k+1))
	s.tot, s.used = tot, used
}

// exclude leaves v in software for every slot. Excluding changes no slot's
// swSum or hwCP, so the incremental total merit is untouched.
func (s *multiCutSearch) exclude(i, v int) {
	bit := uint64(1) << v
	// Pure feasibility pre-check: a pending use of v becomes a permanent
	// input in its slot.
	for k := range s.slots {
		if s.slots[k].pending&bit != 0 && s.slots[k].inCnt+1 > s.maxIn {
			return
		}
	}
	for k := range s.slots {
		s.leave(&s.slots[k], v, bit)
	}
	s.descend(i, 0)
}

// leave commits v as an outside node of sl. With a descendant in the cut
// (a pending use implies one) every ancestor of v must stay outside, or
// the cut becomes non-convex; a pending use becomes a permanent input.
// v's sources would now join only as outputs.
func (s *multiCutSearch) leave(sl *slot, v int, bit uint64) {
	sl.feeds |= s.srcs[v]
	wasPending := sl.pending&bit != 0
	if wasPending || sl.cut&s.desc[v] != 0 {
		sl.blocked |= s.anc[v]
	}
	if wasPending {
		sl.pending &^= bit
		sl.inCnt++
	}
}

// descend explores depth i+1 under the committed decision b (the replay
// byte) and rolls every slot back to its state on entering depth i.
func (s *multiCutSearch) descend(i int, b byte) {
	if s.collect != nil {
		s.trace = append(s.trace, b)
	}
	s.search(i + 1)
	if s.collect != nil {
		s.trace = s.trace[:len(s.trace)-1]
	}
	copy(s.slots, s.snap[i])
}
