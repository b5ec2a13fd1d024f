package search

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/latency"
)

// Vector is a candidate cut's score on every objective axis at once: the
// multi-objective generalization of the paper's scalar merit. Merit and
// Energy are maximized, Area is minimized; Dominates encodes that
// orientation, so callers never compare axes by hand.
type Vector struct {
	// Merit is λ(C) = latSW(C) − cycles(latHW(C)), the core cycles saved
	// per execution of the cut (maximize).
	Merit float64
	// Area is the cut's estimated AFU datapath area in NAND2-equivalent
	// gates (minimize).
	Area float64
	// Energy is the estimated per-execution energy saving: software
	// energy of the covered operations minus their AFU energy and one
	// instruction-issue overhead (maximize).
	Energy float64
}

// CutVector scores one cut on all objective axes under the model. It is a
// pure function of (block structure, model, cut), like core.MetricsOf, so
// the determinism contract extends to every vector in a result stream.
func CutVector(model *latency.Model, cut *core.Cut) Vector {
	return Vector{
		Merit:  cut.Merit(),
		Area:   eval.AFUArea(cut.Block, model, cut.Nodes),
		Energy: cutEnergySaving(model, cut),
	}
}

// Dominates reports strict Pareto dominance: v is at least as good as o on
// every axis (merit and energy high, area low) and strictly better on at
// least one.
func (v Vector) Dominates(o Vector) bool {
	if v.Merit < o.Merit || v.Area > o.Area || v.Energy < o.Energy {
		return false
	}
	return v.Merit > o.Merit || v.Area < o.Area || v.Energy > o.Energy
}

// better is the deterministic total order used to pick one winner from a
// set of mutually non-dominated vectors, and to sort frontier points for
// output: higher merit first, then smaller area, then higher energy. The
// caller breaks full ties by candidate order, which is itself
// deterministic (DESIGN.md's contract).
func (v Vector) better(o Vector) bool {
	if v.Merit != o.Merit {
		return v.Merit > o.Merit
	}
	if v.Area != o.Area {
		return v.Area < o.Area
	}
	return v.Energy > o.Energy
}

// String renders the vector for reports and error messages.
func (v Vector) String() string {
	return fmt.Sprintf("merit %.1f, area %.0f gates, energy %.2f", v.Merit, v.Area, v.Energy)
}

// FrontierPoint is one non-dominated candidate on a Frontier.
type FrontierPoint struct {
	// Block is the index of the application block the candidate was
	// identified in (0 for a single-block Engine.RunContext).
	Block int
	// Cut is the candidate itself.
	Cut *core.Cut
	// Vector is the candidate's score on every objective axis.
	Vector Vector
	// Selected marks points the greedy drive actually picked (and
	// froze); the rest are the trade-offs it left on the table.
	Selected bool
}

// Frontier is the cumulative Pareto frontier of a multi-objective run: the
// set of candidates examined by the search that no other examined
// candidate dominates. It is maintained by the driver goroutine only, in
// deterministic round order, so parallel and sequential runs build
// bit-identical frontiers. The zero value is an empty, unbounded frontier.
type Frontier struct {
	points []FrontierPoint
	// limit bounds the number of retained points (0 = unbounded): when
	// an insertion would exceed it, the lowest-ranked point under the
	// frontier's deterministic total order (pointLess) is evicted, so
	// huge applications cannot grow the frontier without bound. Eviction
	// is a pure function of the (deterministic) insertion sequence, so
	// bounded frontiers keep the parallel == sequential contract.
	limit int
}

// NewBoundedFrontier returns an empty frontier retaining at most max
// points (max <= 0 means unbounded, same as the zero value).
func NewBoundedFrontier(max int) *Frontier {
	if max < 0 {
		max = 0
	}
	return &Frontier{limit: max}
}

// samePoint reports whether the frontier point stands for the candidate
// identified by home block and node set — the identity under which
// re-discovered candidates (later rounds revisit unclaimed cuts)
// deduplicate.
func (p *FrontierPoint) samePoint(bi int, cut *core.Cut) bool {
	return p.Block == bi && p.Cut.Nodes.Equal(cut.Nodes)
}

// add inserts a candidate, preserving the non-dominated invariant: the
// point is dropped when an existing point dominates it (or duplicates it),
// and existing points it dominates are evicted. Insertion order is the
// driver's deterministic round order.
func (f *Frontier) add(bi int, cut *core.Cut, v Vector) {
	for i := range f.points {
		if f.points[i].Vector.Dominates(v) || f.points[i].samePoint(bi, cut) {
			return
		}
	}
	kept := f.points[:0]
	for _, p := range f.points {
		if !v.Dominates(p.Vector) {
			kept = append(kept, p)
		}
	}
	f.points = append(kept, FrontierPoint{Block: bi, Cut: cut, Vector: v})
	if f.limit > 0 && len(f.points) > f.limit {
		f.evictWorst()
	}
}

// evictWorst drops the lowest-ranked point under pointLess — the same
// total order Points() sorts by, so the bounded frontier is always the
// top-limit prefix of the unbounded ordering restricted to survivors.
func (f *Frontier) evictWorst() {
	wi := 0
	for i := 1; i < len(f.points); i++ {
		if pointLess(&f.points[wi], &f.points[i]) {
			wi = i
		}
	}
	f.points = append(f.points[:wi], f.points[wi+1:]...)
}

// pointLess is the deterministic total order on frontier points: best
// merit first, then smaller area, then higher energy, then block index,
// then node-set order. Two distinct points never compare equal (identical
// vector, block and node set would have deduplicated on add).
func pointLess(a, b *FrontierPoint) bool {
	if a.Vector != b.Vector {
		return a.Vector.better(b.Vector)
	}
	if a.Block != b.Block {
		return a.Block < b.Block
	}
	return a.Cut.Nodes.String() < b.Cut.Nodes.String()
}

// markSelected flags the point matching the picked cut, if it is still on
// the frontier (a selected cut can later be dominated by a discovery in
// another round; honest Pareto reporting drops it then).
func (f *Frontier) markSelected(bi int, cut *core.Cut) {
	for i := range f.points {
		if f.points[i].samePoint(bi, cut) {
			f.points[i].Selected = true
			return
		}
	}
}

// Len returns the number of non-dominated points.
func (f *Frontier) Len() int { return len(f.points) }

// Points returns the frontier sorted deterministically: best merit first,
// then smaller area, then higher energy, then block index, then node-set
// order. The slice is a copy; mutating it does not affect the frontier.
func (f *Frontier) Points() []FrontierPoint {
	out := append([]FrontierPoint(nil), f.points...)
	sort.Slice(out, func(i, j int) bool { return pointLess(&out[i], &out[j]) })
	return out
}

// Pareto returns the multi-objective selector: candidates are scored as
// (merit, area, energy) Vectors, each round's winner is chosen from the
// round's non-dominated set by the deterministic total order (highest
// merit, then smallest area, then highest energy, then candidate order),
// and every non-dominated candidate examined accumulates on the run's
// Frontier (returned in Stats.Frontier).
//
// The deterministic tie-break keeps DESIGN.md's contract: parallel and
// sequential runs select the same cuts and build bit-identical frontiers.
// Like Merit, the model may be left nil when the objective is used through
// Runner.GenerateContext, which resolves it from the Config.
func Pareto(model *latency.Model) *Objective {
	return &Objective{Name: "pareto", Model: model, pareto: true}
}

// ParetoBounded is Pareto with a frontier size bound: the run's Frontier
// retains at most maxFrontier points, evicting the lowest-ranked one
// deterministically (see Frontier). maxFrontier <= 0 means unbounded.
func ParetoBounded(model *latency.Model, maxFrontier int) *Objective {
	o := Pareto(model)
	if maxFrontier > 0 {
		o.maxFrontier = maxFrontier
	}
	return o
}

// paretoPick implements pick for multi-objective selection: the best
// point, by the deterministic total order, among the round's non-dominated
// candidates. All non-dominated candidates are recorded on fr (when
// non-nil) before the winner is chosen.
func (o *Objective) paretoPick(bi int, cands []*core.Cut, fr *Frontier) *core.Cut {
	vecs := make([]Vector, len(cands))
	for i, c := range cands {
		vecs[i] = CutVector(o.Model, c)
	}
	var best *core.Cut
	var bestVec Vector
	for i, c := range cands {
		dominated := false
		for j := range cands {
			if j != i && vecs[j].Dominates(vecs[i]) {
				dominated = true
				break
			}
		}
		if dominated {
			continue
		}
		if fr != nil {
			fr.add(bi, c, vecs[i])
		}
		if best == nil || vecs[i].better(bestVec) {
			best, bestVec = c, vecs[i]
		}
	}
	return best
}
