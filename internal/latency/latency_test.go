package latency

import (
	"strings"
	"testing"

	"repro/internal/ir"
)

func TestDefaultCoversAllOps(t *testing.T) {
	m := Default()
	for _, op := range ir.AllOps() {
		if _, ok := m.SW[op]; !ok {
			t.Errorf("no software latency for %v", op)
		}
		if op.IsMem() {
			if m.HWImplementable(op) {
				t.Errorf("memory op %v must not be HW-implementable", op)
			}
			continue
		}
		if !m.HWImplementable(op) {
			t.Errorf("%v should be HW-implementable", op)
		}
	}
}

func TestDefaultRelativeShape(t *testing.T) {
	m := Default()
	hw := func(op ir.Op) float64 {
		d, ok := m.HWLat(op)
		if !ok {
			t.Fatalf("HWLat(%v) missing", op)
		}
		return d
	}
	// Logic << shift < add < mul <= MAC(=1.0 normalization ceiling).
	if !(hw(ir.OpXor) < hw(ir.OpShl) && hw(ir.OpShl) < hw(ir.OpAdd) &&
		hw(ir.OpAdd) < hw(ir.OpMul) && hw(ir.OpMul) < 1.0) {
		t.Error("hardware latency table violates the published relative shape")
	}
	if m.SWLat(ir.OpMul) <= m.SWLat(ir.OpAdd) {
		t.Error("multiply must cost more software cycles than add")
	}
	if m.SWLat(ir.OpLoad) <= m.SWLat(ir.OpAdd) {
		t.Error("load must cost more software cycles than add")
	}
}

func TestSWLatPanicsOnUnknown(t *testing.T) {
	m := &Model{SW: map[ir.Op]int{}}
	defer func() {
		if recover() == nil {
			t.Fatal("SWLat on missing opcode should panic")
		}
	}()
	m.SWLat(ir.OpAdd)
}

func TestBlockSWLatAndValidate(t *testing.T) {
	m := Default()
	bu := ir.NewBuilder("b", 1)
	x, y := bu.Input("x"), bu.Input("y")
	v := bu.Add(bu.Mul(x, y), y)
	bu.LiveOut(v)
	blk := bu.MustBuild()
	if got, want := m.BlockSWLat(blk), m.SWLat(ir.OpMul)+m.SWLat(ir.OpAdd); got != want {
		t.Errorf("BlockSWLat = %d, want %d", got, want)
	}
	if err := m.Validate(blk); err != nil {
		t.Errorf("Validate: %v", err)
	}
	// A model missing mul must fail validation.
	bad := &Model{SW: map[ir.Op]int{ir.OpAdd: 1}, HW: map[ir.Op]float64{ir.OpAdd: 0.3}}
	if err := bad.Validate(blk); err == nil {
		t.Error("Validate should fail for incomplete model")
	}
}

// TestValidateRejectsNegativeSW: a negative software latency fails
// validation with an error naming the opcode, on a mul → xor block whose
// {mul} cut alone would be feasible.
func TestValidateRejectsNegativeSW(t *testing.T) {
	bu := ir.NewBuilder("b", 1)
	x, y := bu.Input("x"), bu.Input("y")
	bu.LiveOut(bu.Xor(bu.Mul(x, y), y))
	blk := bu.MustBuild()
	m := Default()
	m.SW[ir.OpXor] = -5
	err := m.Validate(blk)
	if err == nil {
		t.Fatal("Validate accepted a negative software latency")
	}
	if !strings.Contains(err.Error(), ir.OpXor.String()) || !strings.Contains(err.Error(), "negative") {
		t.Errorf("error %q does not name the negative opcode %v", err, ir.OpXor)
	}
	m.SW[ir.OpXor] = 0
	if err := m.Validate(blk); err != nil {
		t.Errorf("zero software latency rejected: %v", err)
	}
}

func TestEnergyTablesConsistent(t *testing.T) {
	m := Default()
	for op, c := range m.SW {
		if e, ok := m.SWEnergy[op]; !ok || e <= 0 {
			t.Errorf("SWEnergy[%v] = %v, ok=%v", op, e, ok)
		} else if e < float64(c)*0.5 {
			t.Errorf("SWEnergy[%v] suspiciously low vs %d cycles", op, c)
		}
	}
	for op := range m.HW {
		eh, ok := m.HWEnergy[op]
		if !ok || eh <= 0 {
			t.Errorf("HWEnergy[%v] missing", op)
			continue
		}
		if es := m.SWEnergy[op]; eh >= es {
			t.Errorf("HW energy for %v (%v) should undercut SW energy (%v)", op, eh, es)
		}
	}
}
