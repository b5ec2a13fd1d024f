// Package genetic implements the stochastic ISE identification baseline
// the paper compares against (its reference [4], Biswas et al. DAC 2004):
// a genetic algorithm over node-membership bitstrings with penalty-based
// fitness, tournament selection, uniform crossover, point mutation and
// elitism. Multiple cuts are found iteratively, freezing each winner.
//
// The algorithm is deliberately seeded (Options.Seed) so experiments are
// repeatable, but — as the paper stresses — different seeds may yield
// different solutions, unlike the deterministic ISEGEN.
package genetic

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/latency"
	"repro/internal/obs"
)

// Options configure the genetic search.
type Options struct {
	MaxIn, MaxOut int
	Model         *latency.Model

	// Pop is the population size (default 96).
	Pop int
	// MaxGen bounds the number of generations (default 220).
	MaxGen int
	// Stall stops the search after this many generations without
	// improvement of the best feasible fitness (default 40).
	Stall int
	// MutScale scales the per-gene mutation probability MutScale/n
	// (default 1.5).
	MutScale float64
	// TournamentK is the tournament size for selection (default 3).
	TournamentK int
	// Elite is the number of elite individuals copied unchanged
	// (default 2).
	Elite int
	// Seed makes runs repeatable.
	Seed int64

	// IOPenalty and ConvexPenalty shape fitness for infeasible
	// individuals (defaults 6 and 4 per violation unit).
	IOPenalty     float64
	ConvexPenalty float64

	// Metrics costs chromosomes; nil uses core.MetricsOf directly. The
	// search layer installs its shared memoized cache here — fitness
	// evaluation is the genetic baseline's hot path, and converged
	// populations re-evaluate the same chromosomes generation after
	// generation.
	Metrics core.MetricsFunc

	// Stop, when non-nil, is polled between generations and between the
	// iterative rounds; a true return abandons the evolution early. The
	// best feasible cuts found before the stop are still returned (with
	// a nil error), so a cancelled run yields a usable partial answer —
	// the racing engine's deadline path relies on this.
	Stop func() bool

	// Obs, when non-nil, receives the run's generation and fitness-
	// evaluation counts (flushed once per SingleCut call, never inside
	// the evolution loop). Counters are write-only: they cannot affect
	// the evolved result.
	Obs *obs.Recorder
}

func (o *Options) fill() {
	if o.Pop == 0 {
		o.Pop = 96
	}
	if o.MaxGen == 0 {
		o.MaxGen = 220
	}
	if o.Stall == 0 {
		o.Stall = 40
	}
	if o.MutScale == 0 {
		o.MutScale = 1.5
	}
	if o.TournamentK == 0 {
		o.TournamentK = 3
	}
	if o.Elite == 0 {
		o.Elite = 2
	}
	if o.IOPenalty == 0 {
		o.IOPenalty = 6
	}
	if o.ConvexPenalty == 0 {
		o.ConvexPenalty = 4
	}
	if o.Metrics == nil {
		o.Metrics = core.MetricsOf
	}
}

func (o *Options) validate(blk *ir.Block) error {
	if o.Model == nil {
		return fmt.Errorf("genetic: Options.Model is nil")
	}
	if o.MaxIn < 1 || o.MaxOut < 1 {
		return fmt.Errorf("genetic: I/O constraints (%d,%d) must be at least (1,1)", o.MaxIn, o.MaxOut)
	}
	return o.Model.Validate(blk)
}

type individual struct {
	genes   []bool
	fitness float64
	// feasible merit; negative when infeasible.
	feasibleMerit float64
	feasible      bool
}

type evaluator struct {
	blk    *ir.Block
	opt    *Options
	frozen *graph.BitSet
	geneID []int // gene position -> node ID
	cutBuf *graph.BitSet
	// evals counts fitness evaluations for the observability flush.
	evals int64
}

func newEvaluator(blk *ir.Block, opt *Options, excluded *graph.BitSet) *evaluator {
	n := blk.N()
	e := &evaluator{
		blk:    blk,
		opt:    opt,
		frozen: graph.NewBitSet(n),
		cutBuf: graph.NewBitSet(n),
	}
	if excluded != nil {
		e.frozen.Or(excluded)
	}
	for v := 0; v < n; v++ {
		if !opt.Model.HWImplementable(blk.Nodes[v].Op) || blk.ForbiddenInCut(v) {
			e.frozen.Set(v)
		}
	}
	for v := 0; v < n; v++ {
		if !e.frozen.Has(v) {
			e.geneID = append(e.geneID, v)
		}
	}
	return e
}

// eval computes penalty-shaped fitness for one chromosome. With an
// installed MetricsFunc (the search layer's memoized cache) each distinct
// chromosome is costed once.
func (e *evaluator) eval(ind *individual) {
	e.evals++
	cut := e.cutBuf
	cut.Reset()
	for g, on := range ind.genes {
		if on {
			cut.Set(e.geneID[g])
		}
	}
	if cut.Empty() {
		ind.fitness = 0
		ind.feasible = false
		ind.feasibleMerit = 0
		return
	}
	m := e.opt.Metrics(e.blk, e.opt.Model, cut)
	merit := m.Merit()

	pen := 0.0
	if over := m.NumIn - e.opt.MaxIn; over > 0 {
		pen += e.opt.IOPenalty * float64(over)
	}
	if over := m.NumOut - e.opt.MaxOut; over > 0 {
		pen += e.opt.IOPenalty * float64(over)
	}
	pen += e.opt.ConvexPenalty * float64(m.NViol)

	ind.fitness = merit - pen
	ind.feasible = pen == 0
	ind.feasibleMerit = merit
}

// growCluster marks a connected region of up to target unfrozen nodes,
// random-walking over DAG neighbours from a random start.
func (e *evaluator) growCluster(rng *rand.Rand, geneOf map[int]int, genes []bool, target int) {
	start := e.geneID[rng.Intn(len(e.geneID))]
	genes[geneOf[start]] = true
	frontier := []int{start}
	count := 1
	dag := e.blk.DAG()
	for count < target && len(frontier) > 0 {
		idx := rng.Intn(len(frontier))
		v := frontier[idx]
		var cands []int
		for _, p := range dag.Preds(v) {
			if g, ok := geneOf[p]; ok && !genes[g] {
				cands = append(cands, p)
			}
		}
		for _, s := range dag.Succs(v) {
			if g, ok := geneOf[s]; ok && !genes[g] {
				cands = append(cands, s)
			}
		}
		if len(cands) == 0 {
			frontier[idx] = frontier[len(frontier)-1]
			frontier = frontier[:len(frontier)-1]
			continue
		}
		n := cands[rng.Intn(len(cands))]
		genes[geneOf[n]] = true
		frontier = append(frontier, n)
		count++
	}
}

// SingleCut evolves one feasible cut of the block, or returns nil when the
// search finds no feasible cut with positive merit. Nodes in excluded (may
// be nil) cannot join the cut.
func SingleCut(blk *ir.Block, opt Options, excluded *graph.BitSet) (*core.Cut, error) {
	opt.fill()
	if err := opt.validate(blk); err != nil {
		return nil, err
	}
	e := newEvaluator(blk, &opt, excluded)
	ng := len(e.geneID)
	if ng == 0 {
		return nil, nil
	}
	rng := rand.New(rand.NewSource(opt.Seed))

	// Population seeding: half random sparse chromosomes, half connected
	// clusters grown from random start nodes. Pure random subsets of a
	// large DFG are almost surely non-convex and port-infeasible, so the
	// cluster seeds give evolution feasible material to improve — the
	// DAC'04 formulation is similarly structured around connected
	// regions.
	geneOf := make(map[int]int, ng)
	for g, v := range e.geneID {
		geneOf[v] = g
	}
	pop := make([]*individual, opt.Pop)
	for i := range pop {
		genes := make([]bool, ng)
		if i%2 == 0 {
			density := 0.05 + 0.4*rng.Float64()
			if max := 12.0 / float64(ng); density > max && max > 0 {
				density = max + rng.Float64()*max
			}
			for g := range genes {
				genes[g] = rng.Float64() < density
			}
		} else {
			e.growCluster(rng, geneOf, genes, 1+rng.Intn(10))
		}
		pop[i] = &individual{genes: genes}
		e.eval(pop[i])
	}

	bestFeasible := graph.NewBitSet(blk.N())
	bestMerit := 0.0
	stall := 0
	mutP := opt.MutScale / float64(ng)

	recordBest := func() bool {
		improved := false
		for _, ind := range pop {
			if ind.feasible && ind.feasibleMerit > bestMerit {
				bestMerit = ind.feasibleMerit
				bestFeasible.Reset()
				for g, on := range ind.genes {
					if on {
						bestFeasible.Set(e.geneID[g])
					}
				}
				improved = true
			}
		}
		return improved
	}
	recordBest()

	gens := int64(0)
	for gen := 0; gen < opt.MaxGen && stall < opt.Stall; gen++ {
		if opt.Stop != nil && opt.Stop() {
			break
		}
		gens++
		sort.Slice(pop, func(i, j int) bool { return pop[i].fitness > pop[j].fitness })
		next := make([]*individual, 0, opt.Pop)
		for i := 0; i < opt.Elite && i < len(pop); i++ {
			clone := &individual{genes: append([]bool(nil), pop[i].genes...)}
			e.eval(clone)
			next = append(next, clone)
		}
		for len(next) < opt.Pop {
			p1 := tournament(pop, rng, opt.TournamentK)
			p2 := tournament(pop, rng, opt.TournamentK)
			child := &individual{genes: make([]bool, ng)}
			for g := 0; g < ng; g++ {
				if rng.Intn(2) == 0 {
					child.genes[g] = p1.genes[g]
				} else {
					child.genes[g] = p2.genes[g]
				}
				if rng.Float64() < mutP {
					child.genes[g] = !child.genes[g]
				}
			}
			e.eval(child)
			next = append(next, child)
		}
		pop = next
		if recordBest() {
			stall = 0
		} else {
			stall++
		}
	}

	opt.Obs.Add(obs.GeneticGenerations, gens)
	opt.Obs.Add(obs.GeneticEvaluations, e.evals)
	if bestFeasible.Empty() || bestMerit <= 0 {
		return nil, nil
	}
	m := opt.Metrics(blk, opt.Model, bestFeasible)
	return &core.Cut{
		Block: blk, Nodes: bestFeasible,
		NumIn: m.NumIn, NumOut: m.NumOut, SWLat: m.SWLat, HWLat: m.HWLat,
	}, nil
}

func tournament(pop []*individual, rng *rand.Rand, k int) *individual {
	best := pop[rng.Intn(len(pop))]
	for i := 1; i < k; i++ {
		c := pop[rng.Intn(len(pop))]
		if c.fitness > best.fitness {
			best = c
		}
	}
	return best
}

// Iterative finds up to nise cuts by repeated single-cut evolution,
// freezing each winner's nodes — the multi-cut strategy of the genetic
// baseline.
func Iterative(blk *ir.Block, opt Options, nise int) ([]*core.Cut, error) {
	if nise < 1 {
		return nil, fmt.Errorf("genetic: nise = %d, must be at least 1", nise)
	}
	excluded := graph.NewBitSet(blk.N())
	var cuts []*core.Cut
	for len(cuts) < nise {
		if opt.Stop != nil && opt.Stop() {
			break
		}
		opt.Seed++ // decorrelate successive searches deterministically
		cut, err := SingleCut(blk, opt, excluded)
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
