package search

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/latency"
)

// Scorer ranks candidate cuts during a multi-cut drive. It may inspect the
// per-block excluded sets (e.g. to count claimable reuse instances) but
// must not modify them. A non-positive score rejects the candidate.
type Scorer func(blockIdx int, cut *core.Cut, excluded []*graph.BitSet) float64

// Objective is the pluggable goal function of a search: the latency model
// every engine costs cuts with, plus an optional candidate scorer. A nil
// Score selects the maximum-merit candidate — the paper's single gain
// function; the constructors below open further scenarios (reuse-aware,
// area-weighted, energy-weighted, latency-budgeted, class-weighted, and
// multi-objective Pareto selection) without touching any engine.
// NewObjective constructs them by registry name, mirroring the engine
// registry.
type Objective struct {
	// Name labels the objective in reports.
	Name string
	// Model supplies software/hardware latencies, energy and area.
	Model *latency.Model
	// Score ranks candidates; nil picks maximum merit. When an
	// objective is used through a per-block Engine.RunContext, the scorer is
	// invoked with blockIdx 0 and a single-element excluded slice;
	// application-scoped objectives (marked by their constructors) are
	// rejected there and only valid with Runner.GenerateContext.
	Score Scorer

	// appScoped marks scorers that index into a whole application
	// (block frequencies, cross-block reuse) and therefore cannot run
	// through a per-block engine.
	appScoped bool
	// pareto marks multi-objective dominance selection (see Pareto):
	// candidates are scored as Vectors and the run accumulates a
	// Frontier instead of ranking by one scalar.
	pareto bool
	// maxFrontier bounds the run's Frontier (pareto only; 0 = unbounded;
	// see ParetoBounded).
	maxFrontier int
}

// AppScoped reports whether the objective needs application context and
// is only usable with Runner.GenerateContext.
func (o *Objective) AppScoped() bool { return o != nil && o.appScoped }

// MultiObjective reports whether the objective selects by Pareto
// dominance over (merit, area, energy) vectors rather than a scalar
// score. Multi-objective runs return their Frontier in Stats.Frontier.
func (o *Objective) MultiObjective() bool { return o != nil && o.pareto }

// pick selects the best-scoring candidate from a merit-sorted pool, or nil
// when every candidate is rejected. With a nil scorer the head of the pool
// (maximum merit) wins, matching the paper's selection rule; a Pareto
// objective selects by dominance and records the round's non-dominated
// candidates on fr (when non-nil).
func (o *Objective) pick(blockIdx int, cands []*core.Cut, excluded []*graph.BitSet, fr *Frontier) *core.Cut {
	if len(cands) == 0 {
		return nil
	}
	if o != nil && o.pareto {
		return o.paretoPick(blockIdx, cands, fr)
	}
	if o == nil || o.Score == nil {
		return cands[0]
	}
	bestScore := 0.0
	var best *core.Cut
	for _, c := range cands {
		if s := o.Score(blockIdx, c, excluded); s > bestScore {
			bestScore = s
			best = c
		}
	}
	return best
}

// Merit is the paper's objective: select the feasible cut with the highest
// merit λ(C) = latSW(C) − cycles(latHW(C)).
func Merit(model *latency.Model) *Objective {
	return &Objective{Name: "merit", Model: model}
}

// ReuseAware implements the paper's Figure 1 principle: a candidate is
// worth its merit times the number of disjoint schedulable instances the
// claimer could claim for it, weighted by block frequency — many small
// reusable cuts beat one large single-use cut. The claimer must be the
// same one the driver claims through, so scoring sees claimed state.
func ReuseAware(app *ir.Application, model *latency.Model, claimer *eval.Claimer) *Objective {
	return &Objective{
		Name:  "reuse-aware",
		Model: model,
		Score: func(bi int, cut *core.Cut, excluded []*graph.BitSet) float64 {
			n := claimer.CountInstances(bi, cut, excluded)
			return float64(n) * cut.Merit() * app.Blocks[bi].Freq
		},
		appScoped: true,
	}
}

// AreaWeighted discounts merit by the cut's estimated AFU datapath area:
// score = merit − gatePenalty × area(C), in NAND2-equivalent gates. With a
// small gatePenalty it breaks merit ties toward cheaper silicon; larger
// values model an area-constrained deployment where big AFUs must buy
// proportionally more cycles.
func AreaWeighted(model *latency.Model, gatePenalty float64) *Objective {
	return &Objective{
		Name:  "area-weighted",
		Model: model,
		Score: func(bi int, cut *core.Cut, excluded []*graph.BitSet) float64 {
			return cut.Merit() - gatePenalty*eval.AFUArea(cut.Block, model, cut.Nodes)
		},
	}
}

// issueOverheadEnergy is the per-execution energy charged for issuing one
// ISE instruction, shared by the energy objective and the vector scoring
// of Pareto selection (CutVector).
const issueOverheadEnergy = 1.0

// cutEnergySaving is the estimated per-execution energy saving of a cut:
// software energy of the covered operations minus their AFU energy and
// one instruction-issue overhead. It is the single energy model behind
// both EnergyWeighted scoring and the Energy axis of CutVector, so the
// scalar objective and the reported vectors can never drift apart.
func cutEnergySaving(model *latency.Model, cut *core.Cut) float64 {
	saved := -issueOverheadEnergy
	cut.Nodes.ForEach(func(v int) bool {
		op := cut.Block.Nodes[v].Op
		saved += model.SWEnergy[op] - model.HWEnergy[op]
		return true
	})
	return saved
}

// EnergyWeighted scores a candidate by its estimated per-execution energy
// saving (software energy of the covered operations minus their AFU energy
// and one instruction-issue overhead), weighted by block frequency — the
// Section 6 energy scenario as a first-class objective.
func EnergyWeighted(app *ir.Application, model *latency.Model) *Objective {
	return &Objective{
		Name:  "energy-weighted",
		Model: model,
		Score: func(bi int, cut *core.Cut, excluded []*graph.BitSet) float64 {
			return cutEnergySaving(model, cut) * app.Blocks[bi].Freq
		},
		appScoped: true,
	}
}

// LatencyBudgeted restricts selection to cuts whose AFU occupies the core
// for at most budget cycles, picking maximum merit among those — the
// latency-budgeted deployment where a long multi-cycle AFU would stall
// the issue stage or miss a pipeline timing window.
func LatencyBudgeted(model *latency.Model, budget int) *Objective {
	return &Objective{
		Name:  "latency-budgeted",
		Model: model,
		Score: func(bi int, cut *core.Cut, excluded []*graph.BitSet) float64 {
			if cut.HWCyclesInt() > budget {
				return 0
			}
			return cut.Merit()
		},
	}
}

// BlockClass is the default block classifier used by ClassWeighted:
// "memory" for blocks containing loads or stores, "compute" otherwise.
// Memory blocks interleave AFU candidates with barriers, so deployments
// often weight the two classes differently.
func BlockClass(blk *ir.Block) string {
	for i := range blk.Nodes {
		if blk.Nodes[i].Op.IsMem() {
			return "memory"
		}
	}
	return "compute"
}

// ClassWeighted weights a candidate's merit by the class of its home block
// and the block's execution frequency: score = merit × weight(class) ×
// freq. Classes come from classOf (nil selects BlockClass); classes absent
// from weights default to 1, and a zero weight excludes a class entirely.
// This is the per-block-class weighting scenario: e.g. steer the AFU
// budget toward compute-bound blocks with {"memory": 0.5}.
func ClassWeighted(app *ir.Application, model *latency.Model, classOf func(*ir.Block) string, weights map[string]float64) *Objective {
	if classOf == nil {
		classOf = BlockClass
	}
	w := make([]float64, len(app.Blocks))
	for i, blk := range app.Blocks {
		w[i] = 1
		if v, ok := weights[classOf(blk)]; ok {
			w[i] = v
		}
	}
	return &Objective{
		Name:  "class-weighted",
		Model: model,
		Score: func(bi int, cut *core.Cut, excluded []*graph.BitSet) float64 {
			return cut.Merit() * w[bi] * app.Blocks[bi].Freq
		},
		appScoped: true,
	}
}

// ObjectiveParams carries the per-objective parameters of registry
// construction (NewObjective). The zero value selects every default; only
// the "latency" objective has a required parameter.
type ObjectiveParams struct {
	// GatePenalty is the "area" objective's merit discount per
	// NAND2-equivalent gate (0 selects DefaultGatePenalty).
	GatePenalty float64
	// LatencyBudget is the "latency" objective's bound on AFU cycles
	// per ISE; it must be positive for that objective.
	LatencyBudget int
	// ClassWeights maps block classes to merit multipliers for the
	// "class" objective (absent classes weigh 1).
	ClassWeights map[string]float64
	// ClassOf overrides the "class" objective's block classifier
	// (nil selects BlockClass).
	ClassOf func(*ir.Block) string
	// MaxFrontier bounds the "pareto" objective's cumulative frontier
	// (0 = unbounded); the lowest-ranked point is evicted
	// deterministically when the bound would be exceeded.
	MaxFrontier int
}

// DefaultGatePenalty is the "area" objective's default merit discount per
// NAND2-equivalent gate: small enough that it acts as a tie-break toward
// cheaper silicon rather than vetoing large high-merit cuts (typical cut
// areas run 10²–10⁴ gates against merits of 1–20 cycles).
const DefaultGatePenalty = 1e-4

// objectiveFactories maps registry names (the CLI and query-parameter
// spellings) to constructors, mirroring engineFactories. app may be nil
// for block-local objectives; application-scoped ones reject that.
var objectiveFactories = map[string]func(app *ir.Application, model *latency.Model, p ObjectiveParams) (*Objective, error){
	"merit": func(app *ir.Application, model *latency.Model, p ObjectiveParams) (*Objective, error) {
		return Merit(model), nil
	},
	"reuse": func(app *ir.Application, model *latency.Model, p ObjectiveParams) (*Objective, error) {
		if app == nil {
			return nil, fmt.Errorf("search: objective \"reuse\" needs an application")
		}
		return ReuseAware(app, model, eval.NewClaimer(app)), nil
	},
	"area": func(app *ir.Application, model *latency.Model, p ObjectiveParams) (*Objective, error) {
		gp := p.GatePenalty
		if gp == 0 {
			gp = DefaultGatePenalty
		}
		return AreaWeighted(model, gp), nil
	},
	"energy": func(app *ir.Application, model *latency.Model, p ObjectiveParams) (*Objective, error) {
		if app == nil {
			return nil, fmt.Errorf("search: objective \"energy\" needs an application")
		}
		return EnergyWeighted(app, model), nil
	},
	"latency": func(app *ir.Application, model *latency.Model, p ObjectiveParams) (*Objective, error) {
		if p.LatencyBudget <= 0 {
			return nil, fmt.Errorf("search: objective \"latency\" needs a positive latency budget (got %d)", p.LatencyBudget)
		}
		return LatencyBudgeted(model, p.LatencyBudget), nil
	},
	"class": func(app *ir.Application, model *latency.Model, p ObjectiveParams) (*Objective, error) {
		if app == nil {
			return nil, fmt.Errorf("search: objective \"class\" needs an application")
		}
		return ClassWeighted(app, model, p.ClassOf, p.ClassWeights), nil
	},
	"pareto": func(app *ir.Application, model *latency.Model, p ObjectiveParams) (*Objective, error) {
		return ParetoBounded(model, p.MaxFrontier), nil
	},
}

// NewObjective constructs the named objective from the registry ("merit",
// "reuse", "area", "energy", "latency", "class", "pareto"), mirroring the
// engine registry New. app is required by the application-scoped
// objectives ("reuse", "energy", "class") and ignored by the rest.
//
// A registry-built "reuse" objective scores through a private Claimer: it
// is exact for cuts-only drives (nothing ever claims), while the full
// reuse pipeline (isegen.Generate) wires the shared claimer itself so
// scoring sees claimed state.
func NewObjective(name string, app *ir.Application, model *latency.Model, p ObjectiveParams) (*Objective, error) {
	f, ok := objectiveFactories[name]
	if !ok {
		return nil, fmt.Errorf("search: unknown objective %q (have %v)", name, ObjectiveNames())
	}
	return f(app, model, p)
}

// ObjectiveNames lists the objective registry names in sorted order.
func ObjectiveNames() []string {
	out := make([]string, 0, len(objectiveFactories))
	for n := range objectiveFactories {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
