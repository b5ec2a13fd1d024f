// Package core implements ISEGEN, the paper's contribution: identification
// of Instruction Set Extensions by Kernighan–Lin-style iterative
// improvement over basic-block data-flow graphs.
//
// The package provides the incremental cut state (the paper's
// Itoggle/Otoggle addendum bookkeeping, incremental convexity-violation
// tracking and incremental hardware critical path), the five-component gain
// function of Section 4.2, the modified K-L bi-partition of Section 4.1,
// and the multi-cut driver that solves Problem 2 under an AFU budget.
package core

import (
	"math"
	"math/bits"

	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/latency"
)

// State tracks one software/hardware bi-partition of a block with all the
// incremental bookkeeping needed to evaluate toggles in near-constant time:
//
//   - exact cut input/output counts (the paper's Itoggle/Otoggle addendums
//     generalized to exact per-value consumer counts),
//   - the convexity violator set via |anc(x)∩H| / |desc(x)∩H| counters
//     and their cone unions (below/above),
//   - the hardware critical path via longest-path-in/longest-path-out
//     labels that make "what if we add v" an O(deg(v)) query.
//
// State is exported (within the repository) because the baselines and the
// experiment harness reuse it to cost arbitrary cuts consistently.
type State struct {
	Blk   *ir.Block
	Model *latency.Model

	n int
	// H is the current hardware set (the cut).
	H *graph.BitSet
	// Frozen nodes can never toggle: memory operations, operations with
	// no AFU implementation, and nodes already claimed by a previous ISE.
	Frozen *graph.BitSet

	// I/O bookkeeping.
	inCnt     []int // per value ID: consumers of the value inside H
	totalUses []int // per value ID: total distinct consumers
	numIn     int   // |IN(H)|
	numOut    int   // |OUT(H)|

	// Convexity bookkeeping. below and above are the cone unions of the
	// cut — the nodes with an H-ancestor ({aCnt>0}) and those with an
	// H-descendant ({dCnt>0}) — flipped at the counters' 0↔1 crossings, so
	// the violator set is the word-wise below ∩ above \ H and a cone's
	// convexity witnesses are one masked popcount (see computeDigest).
	aCnt  []int // per node: |anc(x) ∩ H|
	dCnt  []int // per node: |desc(x) ∩ H|
	below *graph.BitSet
	above *graph.BitSet
	viol  *graph.BitSet
	nviol int

	// Latency bookkeeping.
	swLat []int     // per node software cycles
	hwLat []float64 // per node AFU delay (0 for frozen nodes)
	swSum int       // Σ swLat over H
	level []float64 // longest HW path within H ending at v (v ∈ H)
	tail  []float64 // longest HW path within H starting at v (v ∈ H)
	hwCP  float64   // critical path of H

	// nbrH counts, per node, its DAG neighbours (preds + succs) currently
	// in H. It makes the gain function's neighbour (α3) term an O(1) read
	// and classifies removals for the incremental component table: a node
	// with nbrH <= 1 cannot disconnect its component by leaving.
	nbrH []int

	// Incremental critical-path scratch: dirty topological positions whose
	// level (cpDirtyDown) or tail (cpDirtyUp, reverse-position-indexed)
	// must be recomputed after a Toggle-add. Kept empty between updates.
	cpDirtyDown *graph.BitSet
	cpDirtyUp   *graph.BitSet
	// version counts partition mutations (one per added/removed node). The
	// gain context compares it against the last mutation it observed, so a
	// toggle it was not told about forces a label rebuild instead of
	// silently serving stale components.
	version uint64

	// growth is the per-node directional-growth (α4) gain term of an
	// addition, (maxDist − min(up, down)) / maxDist over the barrier
	// distances: fixed for the block, so the step kernel reads it instead
	// of dividing per candidate.
	growth []float64

	// Probe digest cache: the candidate-local half of every candidate's
	// gain, recombined with the global scalars in O(1) by the K-L step
	// kernel (trajectory.selectBestGain). Allocated lazily by
	// prepareDigests; digestValid marks the entries the locality
	// invalidation has not dirtied since they were computed. digestVer is
	// the mutation version the valid bits reflect: every maintenance hook
	// syncs it, and prepareDigests wholesale-resets the valid bits if it
	// ever trails s.version, so a mutation path that bypassed the hooks can
	// go stale-silent only by also forgetting to bump version — which would
	// already break the gain context's guard.
	digest      []probeDigest
	digestValid *graph.BitSet
	digestVer   uint64

	// Observability tallies. Plain (non-atomic) integers: a State is
	// single-goroutine, and the hot loops pay one register increment
	// whether recording is on or off. drainObs hands them off (and
	// zeroes them) at trajectory boundaries so pooled workspaces never
	// leak counts across jobs.
	nToggles      int64
	cpFullSweeps  int64
	gainHits      int64
	gainMisses    int64
	cpCriticalInc int64
}

// NewState returns the all-software partition for the block. Nodes in
// excluded (may be nil) are frozen in software in addition to memory and
// non-implementable operations.
func NewState(blk *ir.Block, model *latency.Model, excluded *graph.BitSet) *State {
	n := blk.N()
	s := &State{
		Blk:       blk,
		Model:     model,
		n:         n,
		H:         graph.NewBitSet(n),
		Frozen:    frozenNodes(blk, model, excluded),
		inCnt:     make([]int, blk.NumValues()),
		totalUses: make([]int, blk.NumValues()),
		aCnt:      make([]int, n),
		dCnt:      make([]int, n),
		below:     graph.NewBitSet(n),
		above:     graph.NewBitSet(n),
		viol:      graph.NewBitSet(n),
		swLat:     make([]int, n),
		hwLat:     make([]float64, n),
		level:     make([]float64, n),
		tail:      make([]float64, n),
		nbrH:      make([]int, n),

		cpDirtyDown: graph.NewBitSet(n),
		cpDirtyUp:   graph.NewBitSet(n),
	}
	for i := 0; i < n; i++ {
		op := blk.Nodes[i].Op
		s.swLat[i] = model.SWLat(op)
		s.hwLat[i], _ = model.HWLat(op) // 0 for the frozen non-implementable ops
	}
	for v := 0; v < blk.NumValues(); v++ {
		s.totalUses[v] = len(blk.Uses(v))
	}
	s.growth = growthTerms(blk)
	return s
}

// frozenNodes returns the nodes that can never toggle: the excluded ones
// (may be nil), memory operations and operations with no AFU
// implementation.
func frozenNodes(blk *ir.Block, model *latency.Model, excluded *graph.BitSet) *graph.BitSet {
	f := graph.NewBitSet(blk.N())
	if excluded != nil {
		f.Or(excluded)
	}
	for i := 0; i < blk.N(); i++ {
		if _, ok := model.HWLat(blk.Nodes[i].Op); !ok || blk.ForbiddenInCut(i) {
			f.Set(i)
		}
	}
	return f
}

// growthTerms returns each node's directional-growth term: nodes close to
// a barrier score near 1, so the cut grows from the barrier frontier
// outward.
func growthTerms(blk *ir.Block) []float64 {
	up, down := blk.DAG().BarrierDistances(blk.ForbiddenInCut)
	maxDist := 0
	for i := range up {
		maxDist = max(maxDist, up[i], down[i])
	}
	if maxDist == 0 {
		maxDist = 1
	}
	g := make([]float64, len(up))
	for i := range g {
		g[i] = (float64(maxDist) - float64(min(up[i], down[i]))) / float64(maxDist)
	}
	return g
}

// N returns the node count of the underlying block.
func (s *State) N() int { return s.n }

// NumIn returns |IN(H)|, the distinct values entering the cut.
func (s *State) NumIn() int { return s.numIn }

// NumOut returns |OUT(H)|, the cut values needed outside it.
func (s *State) NumOut() int { return s.numOut }

// SWSum returns the summed software latency of the cut.
func (s *State) SWSum() int { return s.swSum }

// HWCP returns the hardware critical path of the cut.
func (s *State) HWCP() float64 { return s.hwCP }

// Convex reports whether the current cut is convex.
func (s *State) Convex() bool { return s.nviol == 0 }

// HWCycles converts an AFU critical-path delay to whole core cycles: the
// custom instruction occupies the pipeline for at least one cycle, and the
// MAC delay defines the cycle time (so ceil of the normalized delay).
// An empty cut costs zero cycles.
func HWCycles(cp float64) int {
	if cp <= 0 {
		return 0
	}
	c := int(math.Ceil(cp - 1e-9))
	if c < 1 {
		c = 1
	}
	return c
}

// MeritOf is the cut merit λ(C) = latSW(C) − cycles(latHW(C)): software
// cycles saved per execution when C becomes one ISE. Using whole AFU
// cycles (not the fractional datapath delay) keeps the estimate consistent
// with the cycle-level simulator and prevents degenerate single-node
// "ISEs" from claiming fractional savings.
func MeritOf(swSum int, hwCP float64) float64 {
	return float64(swSum - HWCycles(hwCP))
}

// Merit returns λ(H), the estimated cycles saved per execution when H is
// implemented as one ISE.
func (s *State) Merit() float64 { return MeritOf(s.swSum, s.hwCP) }

// Feasible reports whether the current cut satisfies all architectural
// constraints for the given port limits.
func (s *State) Feasible(maxIn, maxOut int) bool {
	return !s.H.Empty() && s.nviol == 0 && s.numIn <= maxIn && s.numOut <= maxOut
}

// Toggle moves node v across the partition (S→H or H→S), updating all
// incremental structures. v must not be frozen.
//
// Additions update the critical-path labels incrementally: adding v can
// only create paths through v, so only v itself plus the H nodes whose
// longest path grew (v's H-descendants for level, H-ancestors for tail)
// need recomputation — see addCPUpdate. Removals are incremental too:
// removeCPUpdate restores every level/tail label for any removal, and
// when v was critical — the only case where hwCP itself may shrink —
// the new hwCP is re-derived by one O(|H|) max scan over the (tiny) cut
// (see removeWithCPUpdate) instead of the O(V+E) sweep. The tests pin both
// paths against SetCut's full sweep.
func (s *State) Toggle(v int) {
	if s.Frozen.Has(v) {
		panic("core: Toggle of frozen node")
	}
	s.nToggles++
	if s.H.Has(v) {
		s.removeWithCPUpdate(v)
	} else {
		s.addNode(v)
		s.addCPUpdate(v)
	}
}

// removeWithCPUpdate removes v and restores the critical-path invariants
// without a full sweep. removeCPUpdate's label propagation is exact for
// any removal (its argument never uses criticality); only hwCP needs
// extra care. For a non-critical v it is provably unchanged. For a
// critical v it may shrink, and since every level label is exact once the
// propagation settles, re-deriving hwCP is one max scan over H — the same
// multiset maximum recomputeCP takes in topological order, hence
// bit-identical (levels are non-negative path sums; max is order-free).
func (s *State) removeWithCPUpdate(v int) {
	// Criticality must be read before removeNode: level/tail are still
	// v's in-H labels there.
	critical := s.level[v]+s.tail[v]-s.hwLat[v] >= s.hwCP-cpCriticalEps
	s.removeNode(v)
	s.removeCPUpdate(v)
	if critical {
		s.cpCriticalInc++
		s.rebuildHWCP()
	}
}

// rebuildHWCP re-derives hwCP from the settled level labels: O(|H|).
func (s *State) rebuildHWCP() {
	cp := 0.0
	for u := s.H.NextSet(0); u >= 0; u = s.H.NextSet(u + 1) {
		if s.level[u] > cp {
			cp = s.level[u]
		}
	}
	s.hwCP = cp
}

// stateObs is one drain of the per-State observability tallies.
type stateObs struct {
	toggles, cpFull      int64
	gainHits, gainMisses int64 // gainMisses doubles as kl_probes: digest rebuilds
	cpCriticalInc        int64
}

// drainObs returns and clears the observability tallies. Called at
// trajectory boundaries so counts attribute to the job that ran them
// even though the State itself is pooled.
func (s *State) drainObs() stateObs {
	o := stateObs{
		toggles: s.nToggles, cpFull: s.cpFullSweeps,
		gainHits: s.gainHits, gainMisses: s.gainMisses,
		cpCriticalInc: s.cpCriticalInc,
	}
	s.nToggles, s.cpFullSweeps = 0, 0
	s.gainHits, s.gainMisses, s.cpCriticalInc = 0, 0, 0
	return o
}

// SetCut resets the partition to exactly the given cut (which must contain
// no frozen nodes): removeNode/addNode on the symmetric difference, then
// one recomputeCP relabel sweep. K-L calls it once per pass, and each pass
// toggles every unfrozen node, so the next pass's reset jumps across most
// of the block; replaying small deltas as incremental updates measured no
// faster (DESIGN.md, "Which layers pay").
func (s *State) SetCut(cut *graph.BitSet) {
	if cut.Intersects(s.Frozen) {
		panic("core: SetCut includes frozen node")
	}
	if cut.Equal(s.H) {
		return // every invariant already holds
	}
	// The wholesale digest reset in recomputeCP subsumes per-node
	// invalidation, so suspend the walk while the loops run.
	suspended := s.digest
	s.digest = nil
	for v := s.H.NextSet(0); v >= 0; v = s.H.NextSet(v + 1) {
		if !cut.Has(v) {
			s.removeNode(v)
		}
	}
	for v := cut.NextSet(0); v >= 0; v = cut.NextSet(v + 1) {
		if !s.H.Has(v) {
			s.addNode(v)
		}
	}
	s.digest = suspended
	s.cpFullSweeps++
	s.recomputeCP()
}

func (s *State) addNode(v int) {
	blk := s.Blk
	n := s.n
	s.version++
	s.H.Set(v)
	s.swSum += s.swLat[v]

	// v's own value: it was an input of the cut if consumers inside H
	// exist; it stops being one now that its producer joined H.
	if blk.Nodes[v].Op.HasValue() {
		if s.inCnt[v] > 0 {
			s.numIn--
		}
		if blk.LiveOut.Has(v) || s.totalUses[v]-s.inCnt[v] > 0 {
			s.numOut++
		}
	}
	// v's sources gain one consumer inside H.
	for _, src := range blk.Srcs(v) {
		prev := s.inCnt[src]
		s.inCnt[src] = prev + 1
		if src < n && s.H.Has(src) {
			// Producer inside H: one fewer outside consumer; the
			// value may stop being an output.
			if s.totalUses[src]-s.inCnt[src] == 0 && !blk.LiveOut.Has(src) {
				s.numOut--
			}
		} else if prev == 0 {
			s.numIn++
		}
	}

	// Convexity counters and their cone unions.
	dag := blk.DAG()
	bumpCone(dag.Desc(v), s.aCnt, s.below, 1)
	bumpCone(dag.Anc(v), s.dCnt, s.above, 1)
	s.syncViol()
	for _, p := range dag.Preds(v) {
		s.nbrH[p]++
	}
	for _, c := range dag.Succs(v) {
		s.nbrH[c]++
	}
	if s.digest != nil {
		s.digestMutate(v, true)
	}
}

func (s *State) removeNode(v int) {
	blk := s.Blk
	n := s.n
	s.version++
	s.H.Clear(v)
	s.swSum -= s.swLat[v]

	if blk.Nodes[v].Op.HasValue() {
		if blk.LiveOut.Has(v) || s.totalUses[v]-s.inCnt[v] > 0 {
			s.numOut--
		}
		if s.inCnt[v] > 0 {
			s.numIn++
		}
	}
	for _, src := range blk.Srcs(v) {
		s.inCnt[src]--
		if src < n && s.H.Has(src) {
			// Producer still inside H: the value regains an
			// outside consumer (v) and may become an output.
			if s.totalUses[src]-s.inCnt[src] == 1 && !blk.LiveOut.Has(src) {
				s.numOut++
			}
		} else if s.inCnt[src] == 0 {
			s.numIn--
		}
	}

	dag := blk.DAG()
	bumpCone(dag.Desc(v), s.aCnt, s.below, -1)
	bumpCone(dag.Anc(v), s.dCnt, s.above, -1)
	s.syncViol()
	for _, p := range dag.Preds(v) {
		s.nbrH[p]--
	}
	for _, c := range dag.Succs(v) {
		s.nbrH[c]--
	}
	if s.digest != nil {
		s.digestMutate(v, false)
	}
}

// Digest count fields patchCone can adjust in place.
const (
	patchPDesc = iota // probeDigest.pDescCnt (add direction, P witnesses)
	patchQAnc         // probeDigest.qAncCnt  (add direction, Q witnesses)
	patchFix          // probeDigest.fixCnt   (remove direction, A/D repairs)
)

// patchCone adds delta to one count field of every still-valid digest in
// mask on the requested side of the cut. The three filters (cone, valid,
// direction) intersect word-level, so the cost is O(n/64) plus one add
// per surviving entry — cheap enough that a predicate flip patches its
// readers instead of invalidating them.
func (s *State) patchCone(mask *graph.BitSet, inH bool, kind, delta int) {
	mw, vw, hw := mask.Words(), s.digestValid.Words(), s.H.Words()
	for i, w := range mw {
		w &= vw[i]
		if inH {
			w &= hw[i]
		} else {
			w &^= hw[i]
		}
		for w != 0 {
			u := i*64 + bits.TrailingZeros64(w)
			w &= w - 1
			switch kind {
			case patchPDesc:
				s.digest[u].pDescCnt += delta
			case patchQAnc:
				s.digest[u].qAncCnt += delta
			default:
				s.digest[u].fixCnt += delta
			}
		}
	}
}

// digestMutate repairs the probe-digest cache after the toggle of v,
// matched read-for-read against the uncached I/O replay, convexity scan
// and critical-path query that computeDigest runs (see DESIGN.md, "O(1)
// candidate gains").
//
// The neighbourhood rules invalidate outright: v itself (its toggle
// direction flipped), Preds(v) and Succs(v) (they read H(v) in the I/O
// replay and level[v]/tail[v] in the through-path bound), and for each of
// v's source values both its producer node and its other consumers
// ("siblings" — their I/O replays read inCnt[src], which just moved).
//
// The convexity terms are repaired in place rather than invalidated. A
// cached cone scan reads node x only through four predicates —
//
//	P(x) = !H(x) ∧ aCnt(x)==0 ∧ dCnt(x)>0   (pDescCnt, read by off-H Anc(x))
//	Q(x) = !H(x) ∧ dCnt(x)==0 ∧ aCnt(x)>0   (qAncCnt,  read by off-H Desc(x))
//	A(x) = !H(x) ∧ aCnt(x)==1 ∧ dCnt(x)>0   (fixCnt,   read by in-H Anc(x))
//	D(x) = !H(x) ∧ dCnt(x)==1 ∧ aCnt(x)>0   (fixCnt,   read by in-H Desc(x))
//
// — and each cached field is a plain count of the predicate over a cone,
// so when a predicate flips at x the readers' counts move by exactly ±1:
// patchCone applies the delta to the surviving entries and validity is
// untouched. Reader sets split by direction because a valid digest always
// matches its owner's current side of the cut: P and Q feed the
// add-direction witness counts, A and D feed the remove-direction repair
// count, so a flip at x patches only the matching side of Anc(x)/Desc(x).
//
// The toggle moved aCnt by one at every x ∈ Desc(v) and dCnt by one at
// every x ∈ Anc(v), and flipped H at v only, which gives exact flip
// tests on the post-toggle counters: x ∈ H cannot flip anything (all
// four predicates carry !H(x)); an off-cut descendant flips P iff the
// new aCnt crossed 0↔1 with dCnt>0, flips A iff it crossed a 0↔1/1↔2
// boundary with dCnt>0, and flips Q/D iff it crossed 0↔1 while dCnt is
// 0/1 (ancestors symmetrically); v's own H flip replays the same tests
// with its unchanged counters. The patch direction is the new predicate
// value: +1 when the flip turned it on, −1 when it turned it off.
// (Violator-set churn needs no separate rule: a viol membership change
// at x is an A/D contribution change, and nviol is recombined fresh.)
//
// Costs O(deg(v) + |Anc(v)| + |Desc(v)| + flips·n/64) — the same
// asymptotic class as the counter maintenance it piggybacks on.
func (s *State) digestMutate(v int, added bool) {
	blk := s.Blk
	dag := blk.DAG()
	dv := s.digestValid
	dv.Clear(v)
	for _, p := range dag.Preds(v) {
		dv.Clear(p)
	}
	for _, c := range dag.Succs(v) {
		dv.Clear(c)
	}
	for _, src := range blk.Srcs(v) {
		if src < s.n {
			dv.Clear(src)
		}
		for _, u := range blk.Uses(src) {
			dv.Clear(u)
		}
	}
	anc, desc := dag.Anc(v), dag.Desc(v)
	// Boundary values for the moved counter: after addNode it was
	// incremented (crossed 0↔1 iff ==1, touched a 0↔1/1↔2 boundary iff
	// ≤2); after removeNode decremented (crossed 0↔1 iff ==0, boundary
	// iff ≤1).
	lo, lim := 0, 1
	if added {
		lo, lim = 1, 2
	}
	// on is the patch delta for predicates whose flip tracks the moved
	// counter crossing 0↔1: they turn on when the counter rose to 1
	// (added) and off when it fell to 0 (removed).
	on := -1
	if added {
		on = 1
	}
	for x := desc.NextSet(0); x >= 0; x = desc.NextSet(x + 1) {
		if s.H.Has(x) {
			continue
		}
		a, d := s.aCnt[x], s.dCnt[x]
		if d > 0 {
			if a == lo { // P(x) flipped: on iff aCnt fell to 0
				s.patchCone(dag.Anc(x), false, patchPDesc, -on)
			}
			if a <= lim { // A(x) flipped: on iff aCnt landed on 1
				delta := -1
				if a == 1 {
					delta = 1
				}
				s.patchCone(dag.Anc(x), true, patchFix, delta)
			}
		}
		if a == lo {
			if d == 0 { // Q(x) flipped: on iff aCnt rose to 1
				s.patchCone(dag.Desc(x), false, patchQAnc, on)
			} else if d == 1 { // D(x) flipped: same crossing
				s.patchCone(dag.Desc(x), true, patchFix, on)
			}
		}
	}
	for x := anc.NextSet(0); x >= 0; x = anc.NextSet(x + 1) {
		if s.H.Has(x) {
			continue
		}
		a, d := s.aCnt[x], s.dCnt[x]
		if a > 0 {
			if d == lo { // Q(x) flipped: on iff dCnt fell to 0
				s.patchCone(dag.Desc(x), false, patchQAnc, -on)
			}
			if d <= lim { // D(x) flipped: on iff dCnt landed on 1
				delta := -1
				if d == 1 {
					delta = 1
				}
				s.patchCone(dag.Desc(x), true, patchFix, delta)
			}
		}
		if d == lo {
			if a == 0 { // P(x) flipped: on iff dCnt rose to 1
				s.patchCone(dag.Anc(x), false, patchPDesc, on)
			} else if a == 1 { // A(x) flipped: same crossing
				s.patchCone(dag.Anc(x), true, patchFix, on)
			}
		}
	}
	// v's own H flip, with v's counters unchanged by its own toggle: all
	// four predicates go off on an add (H(v) now true) and take their
	// counter values on a remove, so the delta is -on for every flip.
	a, d := s.aCnt[v], s.dCnt[v]
	if d > 0 {
		if a == 0 {
			s.patchCone(anc, false, patchPDesc, -on)
		} else if a == 1 {
			s.patchCone(anc, true, patchFix, -on)
		}
	}
	if a > 0 {
		if d == 0 {
			s.patchCone(desc, false, patchQAnc, -on)
		} else if d == 1 {
			s.patchCone(desc, true, patchFix, -on)
		}
	}
	s.digestVer = s.version
}

// bumpCone adds delta (±1) to cnt at every node of cone, one word at a
// time, and flips the node's bit in union where the count crosses 0↔1, so
// union stays exactly {x : cnt[x] > 0}.
func bumpCone(cone *graph.BitSet, cnt []int, union *graph.BitSet, delta int) {
	uw := union.Words()
	for i, w := range cone.Words() {
		var flip uint64
		for ; w != 0; w &= w - 1 {
			tz := bits.TrailingZeros64(w)
			x := i*64 + tz
			c := cnt[x] + delta
			cnt[x] = c
			if c == 0 || c == delta { // 1→0 on removal, 0→1 on addition
				flip |= 1 << uint(tz)
			}
		}
		uw[i] ^= flip
	}
}

// syncViol re-derives the violator set {x ∉ H : aCnt>0 ∧ dCnt>0} and its
// size from the cone unions: below ∩ above \ H, one word at a time.
func (s *State) syncViol() {
	vw, bw, aw, hw := s.viol.Words(), s.below.Words(), s.above.Words(), s.H.Words()
	nv := 0
	for i := range vw {
		w := bw[i] & aw[i] &^ hw[i]
		vw[i] = w
		nv += bits.OnesCount64(w)
	}
	s.nviol = nv
}

// recomputeCP rebuilds level, tail and hwCP for the current H in one
// topological sweep: O(V+E). Toggle maintains the labels incrementally, so
// only SetCut runs it. Every label may move, so the digest cache is reset
// wholesale.
func (s *State) recomputeCP() {
	if s.digest != nil {
		s.digestValid.Reset()
		s.digestVer = s.version
	}
	dag := s.Blk.DAG()
	topo := dag.Topo()
	cp := 0.0
	for _, v := range topo {
		if !s.H.Has(v) {
			s.level[v] = 0
			continue
		}
		best := 0.0
		for _, p := range dag.Preds(v) {
			if s.H.Has(p) && s.level[p] > best {
				best = s.level[p]
			}
		}
		s.level[v] = best + s.hwLat[v]
		if s.level[v] > cp {
			cp = s.level[v]
		}
	}
	for i := len(topo) - 1; i >= 0; i-- {
		v := topo[i]
		if !s.H.Has(v) {
			s.tail[v] = 0
			continue
		}
		best := 0.0
		for _, c := range dag.Succs(v) {
			if s.H.Has(c) && s.tail[c] > best {
				best = s.tail[c]
			}
		}
		s.tail[v] = best + s.hwLat[v]
	}
	s.hwCP = cp
}

// addCPUpdate restores the level/tail/hwCP invariants after v joined H,
// recomputing only the labels that can have moved. Adding a node creates
// new paths exclusively through v, so level can grow only at v and its
// H-descendants, tail only at v and its H-ancestors, and no label ever
// shrinks. Each affected node is recomputed with exactly recomputeCP's
// formula (max over in-H predecessors plus own delay), in topological order
// via a dirty-position bitset, so the resulting labels — and hwCP, which
// under growth is max(old hwCP, changed levels) — are bit-identical to a
// full sweep. Nodes outside H keep their 0 labels untouched.
func (s *State) addCPUpdate(v int) {
	dag := s.Blk.DAG()
	topo := dag.Topo()
	last := len(topo) - 1

	// Downstream: recompute level at ascending topo positions.
	s.cpDirtyDown.Set(dag.TopoPos(v))
	for p := s.cpDirtyDown.NextSet(0); p >= 0; p = s.cpDirtyDown.NextSet(p + 1) {
		s.cpDirtyDown.Clear(p)
		u := topo[p]
		best := 0.0
		for _, q := range dag.Preds(u) {
			if s.H.Has(q) && s.level[q] > best {
				best = s.level[q]
			}
		}
		nl := best + s.hwLat[u]
		if nl != s.level[u] {
			s.level[u] = nl
			s.digestDirtyLevel(u)
		} else if u != v {
			continue // unchanged: downstream labels cannot move through u
		}
		if nl > s.hwCP {
			s.hwCP = nl
		}
		for _, c := range dag.Succs(u) {
			if s.H.Has(c) {
				s.cpDirtyDown.Set(dag.TopoPos(c))
			}
		}
	}

	// Upstream: recompute tail at descending topo positions (the dirty set
	// is indexed by reversed position so NextSet walks toward ancestors).
	s.cpDirtyUp.Set(last - dag.TopoPos(v))
	for p := s.cpDirtyUp.NextSet(0); p >= 0; p = s.cpDirtyUp.NextSet(p + 1) {
		s.cpDirtyUp.Clear(p)
		u := topo[last-p]
		best := 0.0
		for _, c := range dag.Succs(u) {
			if s.H.Has(c) && s.tail[c] > best {
				best = s.tail[c]
			}
		}
		nt := best + s.hwLat[u]
		if nt != s.tail[u] {
			s.tail[u] = nt
			s.digestDirtyTail(u)
		} else if u != v {
			continue
		}
		for _, q := range dag.Preds(u) {
			if s.H.Has(q) {
				s.cpDirtyUp.Set(last - dag.TopoPos(q))
			}
		}
	}
}

// digestDirtyLevel invalidates the digests that read level[u]: the
// through-path bound of every successor candidate still outside H. In-H
// successors hold remove-direction digests, which read no labels — and a
// later toggle of theirs clears their entry anyway.
func (s *State) digestDirtyLevel(u int) {
	if s.digest == nil {
		return
	}
	for _, c := range s.Blk.DAG().Succs(u) {
		if !s.H.Has(c) {
			s.digestValid.Clear(c)
		}
	}
}

// digestDirtyTail invalidates the digests that read tail[u]: the
// through-path bound of every predecessor candidate still outside H.
func (s *State) digestDirtyTail(u int) {
	if s.digest == nil {
		return
	}
	for _, p := range s.Blk.DAG().Preds(u) {
		if !s.H.Has(p) {
			s.digestValid.Clear(p)
		}
	}
}

// cpCriticalEps pads the is-v-critical test of the remove path.
// level[v]+tail[v]−hwLat[v] sums the longest path through v in a different
// association order than recomputeCP's left-to-right level accumulation,
// so a truly critical node could compare a few ulps below hwCP; the pad
// (orders of magnitude above ulp error on path sums, orders below any
// latency-model delta) errs toward the always-correct hwCP rebuild scan.
const cpCriticalEps = 1e-9

// removeCPUpdate restores the level/tail invariants after v left H,
// recomputing only the labels that can have moved. Removing v destroys
// paths exclusively through v, so level can shrink only at v's
// H-descendants and tail only at its H-ancestors, and no label ever
// grows. Each affected node is recomputed with exactly recomputeCP's
// formula in topological order via the dirty-position bitsets, so the
// resulting labels are bit-identical to a full sweep — for any removal.
// hwCP is NOT restored here: when v was off every critical path it is
// provably unchanged (if the attaining node's level shrank, its longest
// path ran through v — contradiction); when v was critical the caller
// re-derives it from the settled levels (see removeWithCPUpdate).
func (s *State) removeCPUpdate(v int) {
	dag := s.Blk.DAG()
	topo := dag.Topo()
	last := len(topo) - 1
	s.level[v], s.tail[v] = 0, 0

	// Downstream: recompute level at ascending topo positions, starting
	// from v's H-successors (v itself is out of H and keeps 0 labels).
	for _, c := range dag.Succs(v) {
		if s.H.Has(c) {
			s.cpDirtyDown.Set(dag.TopoPos(c))
		}
	}
	for p := s.cpDirtyDown.NextSet(0); p >= 0; p = s.cpDirtyDown.NextSet(p + 1) {
		s.cpDirtyDown.Clear(p)
		u := topo[p]
		best := 0.0
		for _, q := range dag.Preds(u) {
			if s.H.Has(q) && s.level[q] > best {
				best = s.level[q]
			}
		}
		nl := best + s.hwLat[u]
		if nl == s.level[u] {
			continue // unchanged: downstream labels cannot move through u
		}
		s.level[u] = nl
		s.digestDirtyLevel(u)
		for _, c := range dag.Succs(u) {
			if s.H.Has(c) {
				s.cpDirtyDown.Set(dag.TopoPos(c))
			}
		}
	}

	// Upstream: recompute tail at descending topo positions (the dirty set
	// is indexed by reversed position so NextSet walks toward ancestors).
	for _, q := range dag.Preds(v) {
		if s.H.Has(q) {
			s.cpDirtyUp.Set(last - dag.TopoPos(q))
		}
	}
	for p := s.cpDirtyUp.NextSet(0); p >= 0; p = s.cpDirtyUp.NextSet(p + 1) {
		s.cpDirtyUp.Clear(p)
		u := topo[last-p]
		best := 0.0
		for _, c := range dag.Succs(u) {
			if s.H.Has(c) && s.tail[c] > best {
				best = s.tail[c]
			}
		}
		nt := best + s.hwLat[u]
		if nt == s.tail[u] {
			continue
		}
		s.tail[u] = nt
		s.digestDirtyTail(u)
		for _, q := range dag.Preds(u) {
			if s.H.Has(q) {
				s.cpDirtyUp.Set(last - dag.TopoPos(q))
			}
		}
	}
}

// probeDigest is the candidate-local half of one candidate's gain:
// everything that depends only on v's neighbourhood, cached until a toggle's
// locality invalidation dirties it (see digestMutate). The direction it
// was computed for is implicit — a toggle of v itself always dirties the
// entry, so a valid digest always matches the current !H.Has(v).
type probeDigest struct {
	// dIn/dOut are the I/O replay's port deltas against numIn/numOut.
	dIn, dOut int
	// levelIn/tailOut bound the new through-path for an addition: the
	// max level over in-H predecessors and tail over in-H successors.
	levelIn, tailOut float64
	// pDescCnt/qAncCnt count, for an addition, the fresh convexity
	// violators it would create — the P witnesses among v's descendants
	// and the Q witnesses among its ancestors (see digestMutate). The
	// addition stays convex iff both counts are zero.
	pDescCnt, qAncCnt int
	// fixCnt counts, for a removal, the current violators that removing v
	// repairs; the cut stays convex iff it equals nviol (every violator
	// fixed) and v itself does not become one.
	fixCnt int
}

// prepareDigests readies the probe-digest cache for a scan: the entries
// are allocated on the first scan, so States that never score candidates
// (the cost oracle, the baselines' SetCut users) pay nothing, and the
// valid bits are wholesale-reset if a mutation bypassed the maintenance
// hooks (impossible via the public API, but the version guard makes
// staleness structurally unreachable rather than merely unlikely).
func (s *State) prepareDigests() {
	if s.digest == nil {
		s.digest = make([]probeDigest, s.n)
		s.digestValid = graph.NewBitSet(s.n)
		s.digestVer = s.version
	} else if s.digestVer != s.version {
		s.digestValid.Reset()
		s.digestVer = s.version
	}
}

// computeDigest fills d with the candidate-local half of v's gain for the
// current toggle direction: the exact I/O replay, the full convexity
// witness counts and the through-path query.
func (s *State) computeDigest(v int, adding bool, d *probeDigest) {
	in, out := s.ioAfter(v, adding)
	d.dIn, d.dOut = in-s.numIn, out-s.numOut
	dag := s.Blk.DAG()
	if !adding {
		d.levelIn, d.tailOut = 0, 0
		d.pDescCnt, d.qAncCnt = 0, 0
		fix := 0
		desc, anc := dag.Desc(v), dag.Anc(v)
		for x := s.viol.NextSet(0); x >= 0; x = s.viol.NextSet(x + 1) {
			if (desc.Has(x) && s.aCnt[x] == 1) || (anc.Has(x) && s.dCnt[x] == 1) {
				fix++
			}
		}
		d.fixCnt = fix
		return
	}
	d.fixCnt = 0
	levelIn, tailOut := 0.0, 0.0
	for _, p := range dag.Preds(v) {
		if s.H.Has(p) && s.level[p] > levelIn {
			levelIn = s.level[p]
		}
	}
	for _, c := range dag.Succs(v) {
		if s.H.Has(c) && s.tail[c] > tailOut {
			tailOut = s.tail[c]
		}
	}
	d.levelIn, d.tailOut = levelIn, tailOut
	// Full witness counts, not booleans: digestMutate repairs the counts
	// by ±1 on each predicate flip, which only composes if the cache holds
	// the exact count of P/Q witnesses in the cone. P(x) is x ∈ above \
	// (below ∪ H), Q(x) is x ∈ below \ (above ∪ H).
	d.pDescCnt = s.witnessCount(dag.Desc(v), s.above, s.below)
	d.qAncCnt = s.witnessCount(dag.Anc(v), s.below, s.above)
}

// witnessCount returns |cone ∩ in \ (ex ∪ H)|, one masked popcount per
// word.
func (s *State) witnessCount(cone, in, ex *graph.BitSet) int {
	cw, iw, ew, hw := cone.Words(), in.Words(), ex.Words(), s.H.Words()
	c := 0
	for i, w := range cw {
		c += bits.OnesCount64(w & iw[i] &^ (ew[i] | hw[i]))
	}
	return c
}

// ioAfter computes the exact post-toggle I/O counts by replaying the
// addendum updates without committing them.
func (s *State) ioAfter(v int, adding bool) (in, out int) {
	blk := s.Blk
	n := s.n
	in, out = s.numIn, s.numOut
	hasVal := blk.Nodes[v].Op.HasValue()
	if adding {
		if hasVal {
			if s.inCnt[v] > 0 {
				in--
			}
			if blk.LiveOut.Has(v) || s.totalUses[v]-s.inCnt[v] > 0 {
				out++
			}
		}
		for _, src := range blk.Srcs(v) {
			if src < n && s.H.Has(src) {
				if s.totalUses[src]-(s.inCnt[src]+1) == 0 && !blk.LiveOut.Has(src) {
					out--
				}
			} else if s.inCnt[src] == 0 {
				in++
			}
		}
		return in, out
	}
	if hasVal {
		if blk.LiveOut.Has(v) || s.totalUses[v]-s.inCnt[v] > 0 {
			out--
		}
		if s.inCnt[v] > 0 {
			in++
		}
	}
	for _, src := range blk.Srcs(v) {
		if src < n && s.H.Has(src) {
			if s.totalUses[src]-(s.inCnt[src]-1) == 1 && !blk.LiveOut.Has(src) {
				out++
			}
		} else if s.inCnt[src] == 1 {
			in--
		}
	}
	return in, out
}

// Cut returns a copy of the current hardware set.
func (s *State) Cut() *graph.BitSet { return s.H.Clone() }

// Metrics is the full architectural costing of one cut: the quantities
// every identification algorithm needs to score or validate it. It is the
// value type of the search layer's memoized cut-costing cache.
type Metrics struct {
	// SWLat is the summed software latency of the cut's instructions.
	SWLat int
	// HWLat is the AFU critical path (normalized to MAC = 1.0).
	HWLat float64
	// NumIn and NumOut are the register-file operand counts.
	NumIn, NumOut int
	// NViol counts the convexity violators witnessing illegality (0 for
	// a convex cut).
	NViol int
}

// Convex reports whether the costed cut is convex.
func (m Metrics) Convex() bool { return m.NViol == 0 }

// Merit returns λ(C) = SWLat − cycles(HWLat) of the costed cut.
func (m Metrics) Merit() float64 { return MeritOf(m.SWLat, m.HWLat) }

// MetricsFunc costs an arbitrary cut of a block under a latency model.
// MetricsOf is the direct implementation; the search layer substitutes a
// memoized equivalent so exact, genetic and K-L restarts stop recomputing
// identical cut costs.
type MetricsFunc func(blk *ir.Block, model *latency.Model, cut *graph.BitSet) Metrics

// MetricsOf evaluates an arbitrary cut of the block without any incremental
// state: one longest-path sweep plus the I/O counts and the cone-union
// convexity count. It is the one costing function every engine shares.
func MetricsOf(blk *ir.Block, model *latency.Model, cut *graph.BitSet) Metrics {
	var m Metrics
	cut.ForEach(func(v int) bool {
		m.SWLat += model.SWLat(blk.Nodes[v].Op)
		return true
	})
	dag := blk.DAG()
	_, m.HWLat = dag.LongestPath(cut, func(v int) float64 {
		d, _ := model.HWLat(blk.Nodes[v].Op)
		return d
	})
	m.NumIn = blk.CutInputs(cut)
	m.NumOut = blk.CutOutputs(cut)
	m.NViol = dag.ViolatorCount(cut)
	return m
}
