package dfgio

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/ir"
)

func buildSample(t *testing.T) *ir.Block {
	t.Helper()
	bu := ir.NewBuilder("sample", 42.5)
	in := bu.Inputs(3)
	c := bu.Const(7)
	m := bu.Mul(in[0], in[1])
	a := bu.Add(m, in[2])
	x := bu.Xor(a, c)
	bu.LiveOut(a, x)
	return bu.MustBuild()
}

func TestWriteParseRoundTrip(t *testing.T) {
	blk := buildSample(t)
	var buf bytes.Buffer
	if err := Write(&buf, blk); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Parse(&buf)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	assertBlocksEqual(t, blk, got)
}

func assertBlocksEqual(t *testing.T, want, got *ir.Block) {
	t.Helper()
	if got.Name != want.Name || got.NumInputs != want.NumInputs || got.Freq != want.Freq {
		t.Fatalf("header mismatch: got %v, want %v", got, want)
	}
	if got.N() != want.N() {
		t.Fatalf("node count %d, want %d", got.N(), want.N())
	}
	for i := range want.Nodes {
		w, g := &want.Nodes[i], &got.Nodes[i]
		if g.Op != w.Op || g.Imm != w.Imm || len(g.Args) != len(w.Args) {
			t.Fatalf("node %d mismatch: got %+v, want %+v", i, g, w)
		}
		for j := range w.Args {
			if g.Args[j] != w.Args[j] {
				t.Fatalf("node %d arg %d mismatch", i, j)
			}
		}
	}
	if !got.LiveOut.Equal(want.LiveOut) {
		t.Fatalf("LiveOut mismatch: got %v, want %v", got.LiveOut, want.LiveOut)
	}
}

func TestParseHandWritten(t *testing.T) {
	src := `
# a hand-written DFG
dfg mac
freq 100
inputs 3
0 mul i0 i1
1 add n0 i2 !out
`
	blk, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if blk.Name != "mac" || blk.Freq != 100 || blk.NumInputs != 3 || blk.N() != 2 {
		t.Fatalf("parsed header wrong: %v", blk)
	}
	if !blk.LiveOut.Has(1) || blk.LiveOut.Has(0) {
		t.Error("LiveOut wrong")
	}
	vals, err := blk.Eval([]int32{6, 7, 8}, nil)
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	if vals[1] != 50 {
		t.Errorf("6*7+8 = %d, want 50", vals[1])
	}
}

func TestParseApplicationMultipleBlocks(t *testing.T) {
	src := `
dfg first
inputs 1
0 neg i0 !out

dfg second
freq 9
inputs 2
0 add i0 i1
1 const imm=-3
2 mul n0 n1 !out
`
	app, err := ParseApplication("app", strings.NewReader(src))
	if err != nil {
		t.Fatalf("ParseApplication: %v", err)
	}
	if len(app.Blocks) != 2 {
		t.Fatalf("got %d blocks, want 2", len(app.Blocks))
	}
	if app.Blocks[0].Freq != 1 {
		t.Errorf("default freq = %g, want 1", app.Blocks[0].Freq)
	}
	if app.Blocks[1].Nodes[1].Imm != -3 {
		t.Errorf("imm = %d, want -3", app.Blocks[1].Nodes[1].Imm)
	}
}

// TestParseApplicationZeroWeight: an application with no dynamic weight —
// every block at freq 0, or the only executed blocks empty — has no
// defined speedup, so the parser rejects it up front with a ParseError.
func TestParseApplicationZeroWeight(t *testing.T) {
	for name, src := range map[string]string{
		"all freq 0":           "dfg a\nfreq 0\ninputs 2\n0 add i0 i1 !out\ndfg b\nfreq 0\ninputs 1\n0 neg i0 !out\n",
		"executed block empty": "dfg a\nfreq 5\ninputs 0\ndfg b\nfreq 0\ninputs 2\n0 add i0 i1 !out\n",
	} {
		_, err := ParseApplication("z", strings.NewReader(src))
		var pe *ParseError
		if !errors.As(err, &pe) || !strings.Contains(pe.Msg, "no dynamic weight") {
			t.Errorf("%s: err = %v, want a no-dynamic-weight ParseError", name, err)
		}
	}
	// One executed non-empty block is enough.
	src := "dfg a\nfreq 0\ninputs 2\n0 add i0 i1 !out\ndfg b\nfreq 0.5\ninputs 1\n0 neg i0 !out\n"
	if _, err := ParseApplication("w", strings.NewReader(src)); err != nil {
		t.Fatalf("weighted application rejected: %v", err)
	}
}

func TestApplicationRoundTrip(t *testing.T) {
	b1 := buildSample(t)
	bu := ir.NewBuilder("tiny", 3)
	x := bu.Input("x")
	bu.LiveOut(bu.Neg(x))
	b2 := bu.MustBuild()
	app := &ir.Application{Name: "app", Blocks: []*ir.Block{b1, b2}}
	var buf bytes.Buffer
	if err := WriteApplication(&buf, app); err != nil {
		t.Fatalf("WriteApplication: %v", err)
	}
	got, err := ParseApplication("app", &buf)
	if err != nil {
		t.Fatalf("ParseApplication: %v", err)
	}
	if len(got.Blocks) != 2 {
		t.Fatalf("got %d blocks, want 2", len(got.Blocks))
	}
	assertBlocksEqual(t, b1, got.Blocks[0])
	assertBlocksEqual(t, b2, got.Blocks[1])
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"no header", "freq 1\n"},
		{"bad header", "dfg\n"},
		{"bad freq", "dfg x\nfreq no\n0 const imm=1 !out\n"},
		{"negative freq", "dfg x\nfreq -2\n"},
		{"NaN freq", "dfg x\nfreq NaN\n0 const imm=1 !out\n"},
		{"infinite freq", "dfg x\nfreq +Inf\n0 const imm=1 !out\n"},
		{"bad inputs", "dfg x\ninputs -1\n"},
		{"out of order id", "dfg x\ninputs 1\n1 neg i0\n"},
		{"unknown op", "dfg x\ninputs 1\n0 frob i0\n"},
		{"bad operand", "dfg x\ninputs 1\n0 neg q0\n"},
		{"forward ref", "dfg x\ninputs 1\n0 neg n1\n1 neg i0\n"},
		{"missing opcode", "dfg x\ninputs 1\n0\n"},
		{"bad imm", "dfg x\n0 const imm=zz\n"},
		{"input out of range", "dfg x\ninputs 1\n0 neg i5\n"},
		{"empty", ""},
	}
	for _, c := range cases {
		if _, err := Parse(strings.NewReader(c.src)); err == nil {
			t.Errorf("%s: Parse succeeded, want error", c.name)
		}
	}
	var pe *ParseError
	_, err := Parse(strings.NewReader("dfg x\ninputs 1\n5 neg i0\n"))
	if e, ok := err.(*ParseError); !ok {
		t.Errorf("error type %T, want *ParseError", err)
	} else {
		pe = e
	}
	if pe != nil && pe.Line != 3 {
		t.Errorf("error line = %d, want 3", pe.Line)
	}
}

// Property: round trip preserves random blocks exactly.
func TestRoundTripRandomBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		bu := ir.NewBuilder("r", float64(1+rng.Intn(100)))
		ins := bu.Inputs(1 + rng.Intn(4))
		vals := append([]ir.Value{}, ins...)
		for i := 0; i < 2+rng.Intn(25); i++ {
			a := vals[rng.Intn(len(vals))]
			b := vals[rng.Intn(len(vals))]
			var v ir.Value
			switch rng.Intn(7) {
			case 0:
				v = bu.Add(a, b)
			case 1:
				v = bu.Xor(a, b)
			case 2:
				v = bu.Select(a, b, vals[rng.Intn(len(vals))])
			case 3:
				v = bu.Const(int32(rng.Intn(1000) - 500))
			case 4:
				v = bu.Load(a)
			case 5:
				v = bu.AndI(a, int32(rng.Intn(2000)-1000))
			default:
				v = bu.ShrA(a, b)
			}
			vals = append(vals, v)
		}
		bu.LiveOut(vals[len(vals)-1])
		blk := bu.MustBuild()
		var buf bytes.Buffer
		if err := Write(&buf, blk); err != nil {
			t.Fatalf("Write: %v", err)
		}
		got, err := Parse(&buf)
		if err != nil {
			t.Fatalf("Parse(trial %d): %v\n%s", trial, err, buf.String())
		}
		assertBlocksEqual(t, blk, got)
	}
}

func TestWriteDOT(t *testing.T) {
	blk := buildSample(t)
	cut := graph.NewBitSet(blk.N())
	cut.Set(1)
	cut.Set(2)
	var buf bytes.Buffer
	if err := WriteDOT(&buf, blk, []*graph.BitSet{cut}); err != nil {
		t.Fatalf("WriteDOT: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"digraph", "n1 -> n2", "in0 -> n1", "lightblue", "peripheries=2"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q:\n%s", want, out)
		}
	}
}
