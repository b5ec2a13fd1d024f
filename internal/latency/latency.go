// Package latency models per-operation software latencies (processor cycles
// on the baseline single-issue RISC core) and hardware latencies (AFU
// datapath delays normalized to a 32-bit multiply-accumulate, following the
// paper's methodology of synthesizing each operator on a common CMOS
// technology and normalizing to the MAC delay).
//
// The paper's absolute synthesis numbers are not published; the table below
// keeps the standard relative shape used throughout the ISE literature:
// bitwise logic is far cheaper than addition, which is cheaper than
// shifting by a variable amount, which is cheaper than multiplication. The
// whole repository depends only on these relative magnitudes.
package latency

import (
	"fmt"

	"repro/internal/ir"
)

// Model supplies software cycles, hardware delay and energy per opcode.
// A zero Model is not usable; call Default or build a custom one.
type Model struct {
	// SW holds baseline processor cycles per opcode.
	SW map[ir.Op]int
	// HW holds AFU datapath delay per opcode, normalized to MAC = 1.0.
	// Opcodes that cannot be implemented in an AFU (memory operations)
	// are absent.
	HW map[ir.Op]float64
	// SWEnergy and HWEnergy hold per-execution energy in arbitrary
	// consistent units (used by the future-work energy experiment).
	SWEnergy map[ir.Op]float64
	HWEnergy map[ir.Op]float64
	// Area holds AFU operator area in NAND2-equivalent gates (used by
	// the hardware generator and the area-budget selection extension).
	// Memory opcodes are absent, like HW.
	Area map[ir.Op]float64
}

// Default returns the latency model used by all experiments in this
// repository.
func Default() *Model {
	sw := map[ir.Op]int{
		ir.OpConst: 1, // materialize an immediate
		ir.OpAdd:   1, ir.OpSub: 1, ir.OpNeg: 1,
		ir.OpAnd: 1, ir.OpOr: 1, ir.OpXor: 1, ir.OpNot: 1,
		ir.OpShl: 1, ir.OpShrL: 1, ir.OpShrA: 1,
		ir.OpCmpEQ: 1, ir.OpCmpNE: 1, ir.OpCmpLT: 1,
		ir.OpCmpLE: 1, ir.OpCmpGT: 1, ir.OpCmpGE: 1,
		ir.OpSelect: 1, ir.OpMin: 1, ir.OpMax: 1,
		ir.OpMul:  3,
		ir.OpLoad: 2, ir.OpStore: 1,
	}
	hw := map[ir.Op]float64{
		ir.OpConst: 0.01, // hard-wired constant
		ir.OpAnd:   0.05, ir.OpOr: 0.05, ir.OpXor: 0.05, ir.OpNot: 0.03,
		ir.OpShl: 0.20, ir.OpShrL: 0.20, ir.OpShrA: 0.20,
		ir.OpAdd: 0.30, ir.OpSub: 0.30, ir.OpNeg: 0.15,
		ir.OpCmpEQ: 0.25, ir.OpCmpNE: 0.25, ir.OpCmpLT: 0.30,
		ir.OpCmpLE: 0.30, ir.OpCmpGT: 0.30, ir.OpCmpGE: 0.30,
		ir.OpSelect: 0.10, ir.OpMin: 0.40, ir.OpMax: 0.40,
		ir.OpMul: 0.90,
		// Memory operations are intentionally absent: AFUs have no
		// memory port in the paper's architecture model.
	}
	// Operator areas in NAND2-equivalent gates for a 32-bit datapath:
	// ripple/carry-select adders ≈ 10 gates/bit, a barrel shifter ≈ 18,
	// an array multiplier ≈ 250, bitwise logic 1–2, comparators ≈ 11,
	// multiplexers ≈ 7/bit. Only relative magnitudes matter.
	area := map[ir.Op]float64{
		ir.OpConst: 0,
		ir.OpAnd:   40, ir.OpOr: 40, ir.OpXor: 64, ir.OpNot: 32,
		ir.OpShl: 580, ir.OpShrL: 580, ir.OpShrA: 600,
		ir.OpAdd: 320, ir.OpSub: 340, ir.OpNeg: 180,
		ir.OpCmpEQ: 180, ir.OpCmpNE: 180, ir.OpCmpLT: 350,
		ir.OpCmpLE: 350, ir.OpCmpGT: 350, ir.OpCmpGE: 350,
		ir.OpSelect: 230, ir.OpMin: 580, ir.OpMax: 580,
		ir.OpMul: 8000,
	}
	swE := map[ir.Op]float64{}
	for op, cyc := range sw {
		// Software energy scales with occupancy of the full core
		// pipeline: one unit per cycle.
		swE[op] = float64(cyc) * 1.0
	}
	hwE := map[ir.Op]float64{}
	for op, d := range hw {
		// AFU operators burn energy roughly proportional to their
		// datapath size, for which delay is a reasonable proxy, and
		// avoid the fetch/decode overhead of the core (factor 0.25).
		hwE[op] = d * 0.25
	}
	return &Model{SW: sw, HW: hw, SWEnergy: swE, HWEnergy: hwE, Area: area}
}

// SWLat returns the software latency of op in cycles.
// It panics on opcodes missing from the table, which indicates a
// model/IR mismatch rather than a recoverable condition.
func (m *Model) SWLat(op ir.Op) int {
	c, ok := m.SW[op]
	if !ok {
		panic(fmt.Sprintf("latency: no software latency for %v", op))
	}
	return c
}

// HWLat returns the normalized AFU delay of op. The boolean is false for
// opcodes that cannot be implemented in an AFU.
func (m *Model) HWLat(op ir.Op) (float64, bool) {
	d, ok := m.HW[op]
	return d, ok
}

// HWImplementable reports whether op may be part of an ISE.
func (m *Model) HWImplementable(op ir.Op) bool {
	_, ok := m.HW[op]
	return ok
}

// BlockSWLat returns the summed software latency of every node in the block.
func (m *Model) BlockSWLat(b *ir.Block) int {
	total := 0
	for i := range b.Nodes {
		total += m.SWLat(b.Nodes[i].Op)
	}
	return total
}

// Validate checks that the model covers every opcode used by the block
// with a non-negative software latency. The exact searches' merit bounds
// assume that a node never lowers the software latency of a cut.
func (m *Model) Validate(b *ir.Block) error {
	for i := range b.Nodes {
		op := b.Nodes[i].Op
		sw, ok := m.SW[op]
		if !ok {
			return fmt.Errorf("latency: block %q node %d: no software latency for %v", b.Name, i, op)
		}
		if sw < 0 {
			return fmt.Errorf("latency: block %q node %d: negative software latency %d for %v", b.Name, i, sw, op)
		}
		if !op.IsMem() {
			if _, ok := m.HW[op]; !ok {
				return fmt.Errorf("latency: block %q node %d: no hardware latency for %v", b.Name, i, op)
			}
		}
	}
	return nil
}
