// Package eval computes the paper's quality metrics for a set of selected
// ISEs: whole-application speedup (Section 5), dynamic coverage, and the
// future-work metrics (static code size and energy deltas).
//
// Speedup follows the paper's formula
//
//	S = Σ_B f_B·latSW(B) / (Σ_B f_B·latSW(B) − Σ_inst f_B(inst)·M(inst))
//
// summed over every claimed instance of every selected cut, with
// M(inst) = latSW(inst) − latHW(inst).
package eval

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/latency"
	"repro/internal/reuse"
)

// Selection pairs an identified cut with all the instances claimed for it
// (the seed occurrence included).
type Selection struct {
	Cut       *core.Cut
	Instances []reuse.Instance
}

// Report aggregates the quality metrics of a selection set.
type Report struct {
	// SWCycles is the freq-weighted software latency of the whole
	// application (the paper's Cycle_sw).
	SWCycles float64
	// AccelCycles is the estimated freq-weighted latency with all ISEs.
	AccelCycles float64
	// Speedup = SWCycles / AccelCycles.
	Speedup float64
	// Coverage is the fraction of dynamic (freq-weighted) software
	// cycles covered by ISE instances.
	Coverage float64
	// StaticBefore/StaticAfter count static instructions before and
	// after replacing each instance with one ISE opcode.
	StaticBefore, StaticAfter int
	// EnergyBefore/EnergyAfter estimate freq-weighted energy, with
	// covered operations executing on the AFU (datapath energy plus one
	// instruction-issue overhead per instance execution).
	EnergyBefore, EnergyAfter float64
}

// issueOverheadEnergy is the per-ISE-invocation energy spent on fetching
// and issuing the custom instruction itself.
const issueOverheadEnergy = 1.0

// Evaluate computes the metrics of the selections over the application.
// It validates that instances are pairwise disjoint per block, convex and
// within their blocks. It does not check inter-instance schedulability;
// run FilterSchedulable first (the simulator would also reject cyclic
// selections).
func Evaluate(app *ir.Application, model *latency.Model, sels []Selection) (*Report, error) {
	rep := &Report{}
	claimed := make([]*graph.BitSet, len(app.Blocks))
	for bi, blk := range app.Blocks {
		claimed[bi] = graph.NewBitSet(blk.N())
		rep.SWCycles += blk.Freq * float64(model.BlockSWLat(blk))
		rep.StaticBefore += blk.N()
		for i := range blk.Nodes {
			rep.EnergyBefore += blk.Freq * model.SWEnergy[blk.Nodes[i].Op]
		}
	}
	rep.StaticAfter = rep.StaticBefore
	rep.EnergyAfter = rep.EnergyBefore

	saved := 0.0
	coveredCycles := 0.0
	for si, sel := range sels {
		for _, inst := range sel.Instances {
			if inst.BlockIdx < 0 || inst.BlockIdx >= len(app.Blocks) {
				return nil, fmt.Errorf("eval: selection %d: block index %d out of range", si, inst.BlockIdx)
			}
			blk := app.Blocks[inst.BlockIdx]
			if inst.Nodes.Cap() != blk.N() {
				return nil, fmt.Errorf("eval: selection %d: instance capacity %d != block size %d", si, inst.Nodes.Cap(), blk.N())
			}
			if claimed[inst.BlockIdx].Intersects(inst.Nodes) {
				return nil, fmt.Errorf("eval: selection %d: instance overlaps a previously claimed instance in block %q", si, blk.Name)
			}
			claimed[inst.BlockIdx].Or(inst.Nodes)

			m := core.MetricsOf(blk, model, inst.Nodes)
			if !m.Convex() {
				return nil, fmt.Errorf("eval: selection %d: non-convex instance in block %q", si, blk.Name)
			}
			saved += blk.Freq * m.Merit()
			coveredCycles += blk.Freq * float64(m.SWLat)

			rep.StaticAfter -= inst.Nodes.Count() - 1
			// Energy: covered ops run on the AFU.
			swE, hwE := 0.0, 0.0
			inst.Nodes.ForEach(func(v int) bool {
				op := blk.Nodes[v].Op
				swE += model.SWEnergy[op]
				hwE += model.HWEnergy[op]
				return true
			})
			rep.EnergyAfter -= blk.Freq * (swE - hwE - issueOverheadEnergy)
		}
	}

	rep.AccelCycles = rep.SWCycles - saved
	if rep.AccelCycles <= 0 {
		return nil, fmt.Errorf("eval: accelerated cycles %v not positive; latency model inconsistent", rep.AccelCycles)
	}
	rep.Speedup = rep.SWCycles / rep.AccelCycles
	if rep.SWCycles > 0 {
		rep.Coverage = coveredCycles / rep.SWCycles
	}
	return rep, nil
}

// FilterSchedulable drops instances that would create a dependency cycle
// between atomic ISE executions in the same block (e.g. cut A feeding cut
// B and cut B feeding cut A through disjoint paths), which would make the
// block unschedulable. Instances are considered in order; an instance is
// kept when the contracted dependence graph over kept instances remains
// acyclic. The returned selections share the surviving instances.
func FilterSchedulable(app *ir.Application, sels []Selection) []Selection {
	s := newSchedule(app)
	out := make([]Selection, 0, len(sels))
	for _, sel := range sels {
		if insts := s.keep(append([]reuse.Instance(nil), sel.Instances...)); len(insts) > 0 {
			out = append(out, Selection{Cut: sel.Cut, Instances: insts})
		}
	}
	return out
}

// SpeedupOfCuts is a convenience for baseline algorithms that produce bare
// cut lists without reuse instances: each cut counts once, in its own
// block.
func SpeedupOfCuts(app *ir.Application, model *latency.Model, cuts []*core.Cut) (*Report, error) {
	blockIdx := map[*ir.Block]int{}
	for i, b := range app.Blocks {
		blockIdx[b] = i
	}
	sels := make([]Selection, 0, len(cuts))
	for _, c := range cuts {
		bi, ok := blockIdx[c.Block]
		if !ok {
			return nil, fmt.Errorf("eval: cut references a block outside the application")
		}
		sels = append(sels, Selection{
			Cut:       c,
			Instances: []reuse.Instance{{BlockIdx: bi, Nodes: c.Nodes}},
		})
	}
	return Evaluate(app, model, FilterSchedulable(app, sels))
}

// RelativeError returns |a−b| / max(|a|,|b|, 1e-12); used by experiments
// to compare estimated and simulated speedups.
func RelativeError(a, b float64) float64 {
	den := math.Max(math.Max(math.Abs(a), math.Abs(b)), 1e-12)
	return math.Abs(a-b) / den
}
