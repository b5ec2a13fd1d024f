package core

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"

	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/latency"
	"repro/internal/obs"
)

// Config controls one ISEGEN run.
type Config struct {
	// MaxIn and MaxOut are the register-file port constraints (the
	// paper's (INmax, OUTmax), e.g. (4,2)).
	MaxIn, MaxOut int
	// NISE is the AFU budget: the maximum number of distinct ISEs to
	// identify across the application (Problem 2).
	NISE int
	// MaxPasses bounds the outer K-L loop; the paper found 5 passes
	// sufficient, and the loop exits earlier when a pass brings no
	// improvement. A pass toggles each unfrozen node at most once and
	// stops early once no later state of it can be feasible.
	MaxPasses int
	// Restarts runs the K-L loop from several deterministic start
	// configurations — the empty cut plus seed nodes dispersed across
	// the topological order — and keeps the best result. One trajectory
	// explores only a neighbourhood of its start on very large DFGs
	// (AES is 696 nodes); dispersed seeds recover the global structure
	// at a linear cost. 1 reproduces the paper's single-start loop.
	Restarts int
	// Workers bounds the concurrency of the search layer
	// (internal/search): parallel K-L trajectories and per-block
	// fan-out. 0 means one worker per CPU core, 1 forces the sequential
	// path. Results are bit-identical either way; the engine itself
	// ignores the field.
	Workers int
	// Weights are the gain-function control parameters.
	Weights Weights
	// Model supplies software and hardware latencies.
	Model *latency.Model
}

// DefaultConfig returns the configuration used in the paper's main
// experiment: I/O constraints (4,2), 4 AFUs, 5 passes.
func DefaultConfig() Config {
	return Config{
		MaxIn:     4,
		MaxOut:    2,
		NISE:      4,
		MaxPasses: 5,
		Restarts:  4,
		Weights:   DefaultWeights(),
		Model:     latency.Default(),
	}
}

// Validate checks the configuration invariants shared by every driver.
func (c *Config) Validate() error {
	if c.MaxIn < 1 || c.MaxOut < 1 {
		return fmt.Errorf("core: I/O constraints (%d,%d) must be at least (1,1)", c.MaxIn, c.MaxOut)
	}
	if c.NISE < 1 {
		return fmt.Errorf("core: NISE = %d, must be at least 1", c.NISE)
	}
	if c.MaxPasses < 1 {
		return fmt.Errorf("core: MaxPasses = %d, must be at least 1", c.MaxPasses)
	}
	if c.Restarts < 1 {
		return fmt.Errorf("core: Restarts = %d, must be at least 1", c.Restarts)
	}
	if c.Model == nil {
		return fmt.Errorf("core: Config.Model is nil")
	}
	return nil
}

// Cut is one identified ISE candidate within a block.
type Cut struct {
	// Block is the basic block the cut was identified in.
	Block *ir.Block
	// Nodes is the set of instruction IDs forming the ISE.
	Nodes *graph.BitSet
	// NumIn and NumOut are the cut's register-file operand counts.
	NumIn, NumOut int
	// SWLat is the summed software latency of the covered instructions.
	SWLat int
	// HWLat is the AFU critical-path latency (normalized to MAC = 1.0).
	HWLat float64
}

// HWCyclesInt returns the whole core cycles the ISE occupies.
func (c *Cut) HWCyclesInt() int { return HWCycles(c.HWLat) }

// Merit returns λ(C) = SWLat − cycles(HWLat), the cycles saved per
// execution of the cut.
func (c *Cut) Merit() float64 { return MeritOf(c.SWLat, c.HWLat) }

// Size returns the number of instructions in the cut.
func (c *Cut) Size() int { return c.Nodes.Count() }

// Candidate is one feasible cut encountered during the K-L search, before
// metrics finalization.
type Candidate struct {
	Nodes *graph.BitSet
	// Merit is the merit observed when the snapshot was taken —
	// informational only: Finalize recosts every candidate through the
	// metrics function (component-decomposed candidates never carry it).
	Merit float64
}

// Engine runs the modified Kernighan–Lin bi-partition on one block. The
// engine itself is immutable after construction: every restart trajectory
// runs on a private State, so TrajectoryContext may be called
// concurrently from several goroutines (the search layer's restart
// fan-out).
type Engine struct {
	cfg      Config
	blk      *ir.Block
	excluded *graph.BitSet
	// frozen is the block's never-toggling node set, read by Seeds.
	frozen  *graph.BitSet
	metrics MetricsFunc
	// pool recycles trajectory workspaces (State, mark/best bitsets, gain
	// context, snapshot arena) across restart seeds: the restart fan-out
	// allocates at most one workspace per concurrently running trajectory
	// instead of one per seed. Pooled snapshots are never reclaimed (the
	// arena only batches allocation), so handing them to Finalize is safe.
	pool sync.Pool
}

// NewEngine prepares a bi-partition engine for the block. Nodes in excluded
// (may be nil) are frozen in software — the multi-cut driver passes the
// nodes already claimed by earlier ISEs.
func NewEngine(blk *ir.Block, cfg Config, excluded *graph.BitSet) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Model.Validate(blk); err != nil {
		return nil, err
	}
	var ex *graph.BitSet
	if excluded != nil {
		ex = excluded.Clone()
	}
	return &Engine{
		cfg:      cfg,
		blk:      blk,
		excluded: ex,
		frozen:   frozenNodes(blk, cfg.Model, ex),
		metrics:  MetricsOf,
	}, nil
}

// SetMetrics installs a custom cut-costing function (e.g. the search
// layer's memoized cache). f must be equivalent to MetricsOf; nil restores
// the default.
func (e *Engine) SetMetrics(f MetricsFunc) {
	if f == nil {
		f = MetricsOf
	}
	e.metrics = f
}

// Bipartition runs the ISEGEN algorithm of Figure 2 (with Config.Restarts
// dispersed start configurations) and returns the best feasible cut found,
// or nil when no cut with positive merit exists (e.g. every node is
// frozen).
func (e *Engine) Bipartition() *Cut {
	cands := e.Candidates()
	if len(cands) == 0 {
		return nil
	}
	return cands[0]
}

// Candidates runs the full search sequentially and returns every distinct
// feasible cut with positive merit the trajectories passed through, best
// merit first. It is equivalent to running TrajectoryContext over Seeds and
// passing the concatenated snapshots to Finalize — which is exactly what
// the search layer does, in parallel, with bit-identical results.
//
// The head of the list is what Bipartition returns; the tail contains
// smaller cuts that a reuse-aware driver may prefer when they have many
// isomorphic instances (the paper's Figure 1 principle).
func (e *Engine) Candidates() []*Cut {
	var snaps []Candidate
	for _, seed := range e.Seeds() {
		ts, _ := e.TrajectoryContext(context.Background(), seed) // uncancellable: no error
		snaps = append(snaps, ts...)
	}
	return e.Finalize(snaps)
}

// Seeds returns the restart start configurations: the empty cut first,
// then singleton cuts at unfrozen nodes evenly dispersed along the
// topological order, so each restart explores a different region of large
// DFGs. The singletons are distinct: a block with fewer unfrozen nodes than
// Restarts-1 gets one per unfrozen node.
func (e *Engine) Seeds() []*graph.BitSet {
	out := []*graph.BitSet{graph.NewBitSet(e.blk.N())}
	extra := e.cfg.Restarts - 1
	if extra <= 0 {
		return out
	}
	var unfrozen []int
	for _, v := range e.blk.DAG().Topo() {
		if !e.frozen.Has(v) {
			unfrozen = append(unfrozen, v)
		}
	}
	if len(unfrozen) == 0 {
		return out
	}
	prev := -1
	for r := 0; r < extra; r++ {
		idx := (2*r + 1) * len(unfrozen) / (2 * extra)
		if idx >= len(unfrozen) {
			idx = len(unfrozen) - 1
		}
		// idx never decreases, so with fewer unfrozen nodes than extra
		// restarts a repeated pick is always the previous one; its
		// trajectory would only replay the previous seed's.
		if idx == prev {
			continue
		}
		prev = idx
		seed := graph.NewBitSet(e.blk.N())
		seed.Set(unfrozen[idx])
		out = append(out, seed)
	}
	return out
}

// TrajectoryContext runs one full Figure 2 K-L loop from the given start
// cut on a private State and returns every feasible improvement it passed
// through. Safe for concurrent use: trajectories share nothing but the
// immutable block and config. Cancellation has granularity inside the
// block: the K-L loop polls the context every few toggle steps (each step
// is at least an O(n) gain scan, so the amortized check is free) and aborts
// mid-pass, returning the snapshots taken so far alongside ctx.Err(). This
// is what lets a cancelled request abort a 696-node AES bi-partition
// mid-search instead of waiting for the full trajectory.
//
// The trajectory workspace (State and all scratch buffers) comes from the
// engine's pool and is returned to it before this method returns; the
// returned snapshots are arena-backed copies that outlive the pooling.
func (e *Engine) TrajectoryContext(ctx context.Context, seed *graph.BitSet) ([]Candidate, error) {
	_, sp := obs.StartSpan(ctx, obs.KindTrajectory, "")
	t, reused := e.getTrajectory()
	t.ctx = ctx
	t.klLoop(seed)
	snaps, err := t.snaps, t.ctxErr
	// Drain the workspace tallies unconditionally — pooled State must
	// not carry counts into a later job — and record them only when a
	// recorder rides the context.
	o := t.st.drainObs()
	rebuilds := t.gc.rebuilds
	t.gc.rebuilds = 0
	e.putTrajectory(t)
	if rec := obs.FromContext(ctx); rec != nil {
		rec.Add(obs.KLToggles, o.toggles)
		rec.Add(obs.KLProbes, o.gainMisses)
		rec.Add(obs.KLCPFullSweeps, o.cpFull)
		rec.Add(obs.KLGainRebuilds, rebuilds)
		rec.Add(obs.KLGainCacheHits, o.gainHits)
		rec.Add(obs.KLGainCacheMisses, o.gainMisses)
		rec.Add(obs.KLCPCriticalInc, o.cpCriticalInc)
		if reused {
			rec.Add(obs.KLPoolHits, 1)
		} else {
			rec.Add(obs.KLPoolMisses, 1)
		}
	}
	sp.End()
	return snaps, err
}

// getTrajectory takes a reset workspace from the pool or builds a fresh
// one, reporting which happened (the pool-reuse observability counter).
// Pooled and fresh workspaces are behaviorally identical: everything
// klLoop reads is either re-derived from the seed (SetCut normalizes the
// State from whatever cut the previous trajectory left) or reset here.
func (e *Engine) getTrajectory() (*trajectory, bool) {
	if v := e.pool.Get(); v != nil {
		t := v.(*trajectory)
		t.snaps = nil
		t.ctxErr = nil
		t.steps = 0
		t.gc.invalidate()
		return t, true
	}
	n := e.blk.N()
	t := &trajectory{
		cfg:     &e.cfg,
		st:      NewState(e.blk, e.cfg.Model, e.excluded),
		marked:  graph.NewBitSet(n),
		curBest: graph.NewBitSet(n),
		best:    graph.NewBitSet(n),
		arena:   graph.NewBitSetArena(n),
		cutoff:  newPassCutoff(n, e.blk.NumValues()),
	}
	return t, false
}

// putTrajectory returns a workspace to the pool. The snapshot slice was
// handed to the caller, so only the reference is dropped here (by
// getTrajectory's reset); the arena keeps its partially used slabs.
func (e *Engine) putTrajectory(t *trajectory) {
	t.ctx = nil
	e.pool.Put(t)
}

// Finalize post-processes trajectory snapshots into ranked cuts: each
// snapshot is additionally decomposed into its weakly-connected components
// (components of a feasible cut are themselves feasible — no edges cross
// components, so convexity and the I/O port sets inherit subset-wise, and
// repeated patterns usually surface as components of larger opportunistic
// cuts), the pool is deduplicated by node set, costed through the metrics
// function, filtered to positive merit and sorted best merit first.
func (e *Engine) Finalize(snaps []Candidate) []*Cut {
	dag := e.blk.DAG()
	n := e.blk.N()
	// Dedup by node set, keeping order of first appearance: a word-hash
	// index over the uniq list replaces the former O(k²) pairwise Equal
	// scan. Buckets hold indices of equal-hash candidates, verified with
	// Equal, so a hash collision costs one extra compare, never a wrong
	// dedup. Pool order is preserved exactly: all snapshots first, then
	// each snapshot's components in component order.
	var uniq []Candidate
	buckets := make(map[uint64][]int, 2*len(snaps))
	seen := func(b *graph.BitSet) bool {
		for _, i := range buckets[b.Hash()] {
			if uniq[i].Nodes.Equal(b) {
				return true
			}
		}
		return false
	}
	add := func(c Candidate) {
		h := c.Nodes.Hash()
		buckets[h] = append(buckets[h], len(uniq))
		uniq = append(uniq, c)
	}
	for _, c := range snaps {
		if !seen(c.Nodes) {
			add(c)
		}
	}
	// Decompose each distinct snapshot (dedup ran first, so duplicates
	// cost nothing here) into its weakly-connected components without
	// allocating per component: labels go into a shared scratch, each
	// component is materialized into one reusable bitset, and only
	// components not seen before are cloned into the pool. Components
	// appended by this loop are connected, so bounding it to the
	// pre-decomposition prefix of uniq only skips guaranteed no-ops.
	var sc graph.CompScratch
	scratch := graph.NewBitSet(n)
	for _, c := range uniq[:len(uniq):len(uniq)] {
		ncomp := dag.ComponentsInto(c.Nodes, &sc)
		if ncomp < 2 {
			continue
		}
		for ci := 0; ci < ncomp; ci++ {
			scratch.Reset()
			for v := c.Nodes.NextSet(0); v >= 0; v = c.Nodes.NextSet(v + 1) {
				if sc.CompOf[v] == ci {
					scratch.Set(v)
				}
			}
			if !seen(scratch) {
				add(Candidate{Nodes: scratch.Clone()}) // merit filled below
			}
		}
	}
	out := make([]*Cut, 0, len(uniq))
	for _, c := range uniq {
		m := e.metrics(e.blk, e.cfg.Model, c.Nodes)
		if m.Merit() <= 0 {
			continue
		}
		out = append(out, &Cut{
			Block:  e.blk,
			Nodes:  c.Nodes,
			NumIn:  m.NumIn,
			NumOut: m.NumOut,
			SWLat:  m.SWLat,
			HWLat:  m.HWLat,
		})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Merit() > out[j].Merit() })
	return out
}

// trajectory is the mutable per-restart search state: one State plus the
// pass bookkeeping and the snapshot pool. Workspaces are pooled per engine
// (see getTrajectory); the arena-backed snapshots are the only outputs that
// escape one.
type trajectory struct {
	cfg     *Config
	ctx     context.Context
	st      *State
	marked  *graph.BitSet
	curBest *graph.BitSet
	best    *graph.BitSet
	arena   *graph.BitSetArena
	cutoff  passCutoff

	curBestMerit float64
	curBestOK    bool
	snaps        []Candidate
	gc           gainContext
	steps        int
	ctxErr       error
}

// ctxCheckEvery is the toggle-step stride of the amortized cancellation
// poll: each step already costs an O(n) gain scan, so one Err() call
// per 16 steps is unmeasurable yet keeps abort latency far below a pass.
const ctxCheckEvery = 16

// cancelled polls the context every ctxCheckEvery toggle steps, latching
// the error.
func (t *trajectory) cancelled() bool {
	if t.ctxErr != nil {
		return true
	}
	t.steps++
	if t.ctx == nil || t.steps%ctxCheckEvery != 0 {
		return false
	}
	t.ctxErr = t.ctx.Err()
	return t.ctxErr != nil
}

// klLoop is one full Figure 2 run from the given start cut: up to
// MaxPasses passes, each toggling unfrozen nodes once in best-gain order,
// tracking the best feasible configuration. Every feasible improvement is
// recorded into the candidate pool as an arena-backed snapshot. A pass
// ends when every unfrozen node is marked, or earlier, once the marked
// nodes prove every later state of the pass infeasible (passCutoff): the
// remaining toggles could record no snapshot and move no best cut, so the
// output is that of the full pass.
func (t *trajectory) klLoop(start *graph.BitSet) {
	st := t.st
	best := t.best
	best.CopyFrom(start)
	bestMerit := 0.0
	// A non-empty seed may itself be feasible with positive merit.
	st.SetCut(best)
	t.gc.invalidate()
	if st.Feasible(t.cfg.MaxIn, t.cfg.MaxOut) {
		bestMerit = st.Merit()
		if bestMerit > 0 {
			t.snaps = append(t.snaps, Candidate{t.arena.CloneOf(best), bestMerit})
		}
	}

	for pass := 0; pass < t.cfg.MaxPasses; pass++ {
		// Each pass restarts from the best cut found so far with all
		// nodes unmarked (Figure 2 lines 03, 18).
		st.SetCut(best)
		t.gc.invalidate()
		t.marked.Reset()
		t.curBest.Reset()
		t.curBestMerit = bestMerit
		t.curBestOK = false
		t.cutoff.reset()

		for {
			if t.cancelled() {
				return
			}
			v, _ := t.selectBestGain()
			if v < 0 {
				break
			}
			st.Toggle(v)
			t.gc.noteToggle(st, v)
			t.marked.Set(v)
			if st.Feasible(t.cfg.MaxIn, t.cfg.MaxOut) {
				if m := st.Merit(); m > t.curBestMerit {
					t.curBestMerit = m
					t.curBest.CopyFrom(st.H)
					t.curBestOK = true
					if m > 0 {
						t.snaps = append(t.snaps, Candidate{t.arena.CloneOf(st.H), m})
					}
				}
			}
			if t.cutoff.note(st, t.marked, v, t.cfg.MaxIn, t.cfg.MaxOut) {
				break // every later state of this pass is infeasible
			}
		}

		if !t.curBestOK {
			break // no improvement this pass: converged
		}
		best.CopyFrom(t.curBest)
		bestMerit = t.curBestMerit
	}
}

// selectBestGain is the K-L step kernel: it evaluates the Section 4.2 gain
// of every unmarked, unfrozen node and returns the argmax (lowest ID wins
// ties) and its gain; -1 when no candidate remains.
//
//	Gain(v) = α1·M(C') − α2·Vio(C') + α3·Cv(v) + α4·L(v) + α5·I(v)
//
// M is the merit of the post-toggle cut C' = H△{v}, zeroed when the toggle
// breaks convexity (an illegal cut has no speedup, but the other terms
// still let it grow toward legality); a small fraction of the raw delay
// slack is added as a tie-breaker so the search keeps a gradient inside
// plateaus where the integer merit does not move. Vio counts port-limit
// overruns. Cv is the neighbour term: ±|neighbours in H|, an O(1) read off
// the state's counts. L is the directional-growth term — favour nodes
// close to a barrier so the cut grows from the barrier frontier outward
// (this is what makes the identified cuts line up with the repeated
// structures an expert would pick; see DESIGN.md §4), mildly resisted on
// removal. I is the independent-subgraphs term: a cut node may move back
// to software when other components are large, freeing ports for them.
//
// The scan walks the open set ^(marked ∪ Frozen) one word at a time in
// ascending node order and evaluates each gain inline: the candidate's
// cached probe digest (rebuilt only when the preceding toggle's
// invalidation walk dirtied it; see digestMutate) is recombined with the
// step's global scalars, hoisted out of the loop, in O(1). The float
// expressions keep the term order of the test-side reference (gain over
// probeRef), so every gain is bit-identical to it.
func (t *trajectory) selectBestGain() (int, float64) {
	t.prepareGainContext()
	st := t.st
	st.prepareDigests()
	w := t.cfg.Weights
	maxIn, maxOut := t.cfg.MaxIn, t.cfg.MaxOut
	numIn, numOut, swSum, nviol, hwCP := st.numIn, st.numOut, st.swSum, st.nviol, st.hwCP
	removeCycles := HWCycles(hwCP)
	totalCP, compCP, compOf := t.gc.totalCP, t.gc.compCP, t.gc.compOf
	digest := st.digest
	mw, fw, hw := t.marked.Words(), st.Frozen.Words(), st.H.Words()
	vw, bw, aw := st.digestValid.Words(), st.below.Words(), st.above.Words()
	var hits, misses int64

	best, bestGain := -1, 0.0
	for i := range mw {
		open := ^(mw[i] | fw[i])
		for open != 0 {
			tz := bits.TrailingZeros64(open)
			open &= open - 1
			v := i*64 + tz
			if v >= st.n {
				break
			}
			bit := uint64(1) << uint(tz)
			adding := hw[i]&bit == 0
			d := &digest[v]
			if vw[i]&bit != 0 {
				hits++
			} else {
				misses++
				st.computeDigest(v, adding, d)
				vw[i] |= bit
			}

			// v has both an H-ancestor and an H-descendant: off the cut
			// it is a violator, in the cut its removal makes it one.
			straddles := bw[i]&aw[i]&bit != 0
			m := 0.0
			var cv, ind float64
			l := st.growth[v]
			if adding {
				sw := swSum + st.swLat[v]
				base := nviol
				if straddles {
					base--
				}
				if base <= 0 && d.pDescCnt == 0 && d.qAncCnt == 0 {
					cp := math.Max(hwCP, d.levelIn+st.hwLat[v]+d.tailOut)
					m = MeritOf(sw, cp) + 0.01*(float64(sw)-cp)
				}
				cv = float64(st.nbrH[v])
			} else {
				sw := swSum - st.swLat[v]
				if !straddles && d.fixCnt == nviol {
					m = float64(sw-removeCycles) + 0.01*(float64(sw)-hwCP)
				}
				cv = -float64(st.nbrH[v])
				l = -l * 0.5
				if ci := compOf[v]; ci >= 0 {
					ind = (totalCP - compCP[ci]) / (1 + totalCP)
				}
			}
			vio := 0.0
			if over := numIn + d.dIn - maxIn; over > 0 {
				vio += float64(over)
			}
			if over := numOut + d.dOut - maxOut; over > 0 {
				vio += float64(over)
			}

			g := w.Merit*m - w.IOPenalty*vio + w.Convexity*cv + w.LargeCut*l + w.Independent*ind
			if best < 0 || g > bestGain {
				best, bestGain = v, g
			}
		}
	}
	st.gainHits += hits
	st.gainMisses += misses
	return best, bestGain
}
