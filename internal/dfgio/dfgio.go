// Package dfgio serializes basic-block DFGs to and from a line-oriented
// text format, and exports them to Graphviz DOT for inspection.
//
// Format (one block):
//
//	dfg <name>
//	freq <float>
//	inputs <int>
//	<id> <op> [operand...] [imm=<int>] [!out]
//
// Operands are `n<id>` for node results and `i<k>` for external inputs.
// Node IDs must be sequential from 0. Lines starting with '#' and blank
// lines are ignored. An application file is a sequence of such blocks.
//
// Example:
//
//	dfg mac
//	freq 100
//	inputs 3
//	0 mul i0 i1
//	1 add n0 i2 !out
package dfgio

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/graph"
	"repro/internal/ir"
)

// Write serializes one block.
func Write(w io.Writer, b *ir.Block) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "dfg %s\n", b.Name)
	fmt.Fprintf(bw, "freq %g\n", b.Freq)
	fmt.Fprintf(bw, "inputs %d\n", b.NumInputs)
	for i := range b.Nodes {
		nd := &b.Nodes[i]
		fmt.Fprintf(bw, "%d %s", i, nd.Op)
		for _, a := range nd.Args {
			switch a.Kind {
			case ir.FromNode:
				fmt.Fprintf(bw, " n%d", a.Index)
			case ir.FromInput:
				fmt.Fprintf(bw, " i%d", a.Index)
			case ir.FromImm:
				fmt.Fprintf(bw, " m%d", a.Index)
			}
		}
		if nd.Op == ir.OpConst {
			fmt.Fprintf(bw, " imm=%d", nd.Imm)
		}
		if b.LiveOut.Has(i) {
			fmt.Fprint(bw, " !out")
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}

// WriteApplication serializes every block of the application, separated by
// blank lines.
func WriteApplication(w io.Writer, app *ir.Application) error {
	for i, b := range app.Blocks {
		if i > 0 {
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
		if err := Write(w, b); err != nil {
			return err
		}
	}
	return nil
}

// ParseError reports a syntax error with its line number.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string { return fmt.Sprintf("dfgio: line %d: %s", e.Line, e.Msg) }

type parser struct {
	sc   *bufio.Scanner
	line int
	peek string
	has  bool
}

func (p *parser) next() (string, bool) {
	if p.has {
		p.has = false
		return p.peek, true
	}
	for p.sc.Scan() {
		p.line++
		t := strings.TrimSpace(p.sc.Text())
		if t == "" || strings.HasPrefix(t, "#") {
			continue
		}
		return t, true
	}
	return "", false
}

func (p *parser) unread(s string) {
	p.peek = s
	p.has = true
}

func (p *parser) errf(format string, args ...interface{}) error {
	return &ParseError{Line: p.line, Msg: fmt.Sprintf(format, args...)}
}

// Parse reads exactly one block.
func Parse(r io.Reader) (*ir.Block, error) {
	p := &parser{sc: bufio.NewScanner(r)}
	p.sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	b, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	if err := p.sc.Err(); err != nil {
		// A read failure looks like EOF to the line loop; surfacing it
		// prevents a truncated stream (size-limited upload, I/O error)
		// from silently parsing as a shorter, valid-looking input.
		return nil, err
	}
	if b == nil {
		return nil, &ParseError{Line: p.line, Msg: "no dfg header found"}
	}
	return b, nil
}

// ParseApplication reads all blocks in the stream.
func ParseApplication(name string, r io.Reader) (*ir.Application, error) {
	p := &parser{sc: bufio.NewScanner(r)}
	p.sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	app := &ir.Application{Name: name}
	for {
		b, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		app.Blocks = append(app.Blocks, b)
	}
	if err := p.sc.Err(); err != nil {
		// See Parse: a read failure must not masquerade as EOF, or a
		// truncated stream would yield a silently shortened application.
		return nil, err
	}
	if len(app.Blocks) == 0 {
		return nil, &ParseError{Line: p.line, Msg: "no blocks in application"}
	}
	// Speedup, coverage and energy are ratios over the application's
	// dynamic weight (frequency-weighted node count), so an application
	// without any has no defined result: reject it here, before a served
	// job commits its response status.
	weighted := false
	for _, b := range app.Blocks {
		weighted = weighted || (b.Freq > 0 && b.N() > 0)
	}
	if !weighted {
		return nil, &ParseError{Line: p.line, Msg: "application has no dynamic weight: every block has freq 0 or no nodes"}
	}
	return app, nil
}

// parseBlock returns (nil, nil) at EOF.
func (p *parser) parseBlock() (*ir.Block, error) {
	head, ok := p.next()
	if !ok {
		return nil, nil
	}
	fields := strings.Fields(head)
	if len(fields) != 2 || fields[0] != "dfg" {
		return nil, p.errf("expected 'dfg <name>', got %q", head)
	}
	blk := &ir.Block{Name: fields[1], Freq: 1}

	type pendingNode struct {
		node ir.Node
		out  bool
	}
	var pending []pendingNode
	for {
		line, ok := p.next()
		if !ok {
			break
		}
		f := strings.Fields(line)
		switch f[0] {
		case "dfg":
			p.unread(line)
			goto done
		case "freq":
			if len(f) != 2 {
				return nil, p.errf("freq takes one value")
			}
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil || v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, p.errf("bad freq %q", f[1])
			}
			blk.Freq = v
		case "inputs":
			if len(f) != 2 {
				return nil, p.errf("inputs takes one value")
			}
			v, err := strconv.Atoi(f[1])
			if err != nil || v < 0 {
				return nil, p.errf("bad inputs %q", f[1])
			}
			blk.NumInputs = v
		default:
			id, err := strconv.Atoi(f[0])
			if err != nil {
				return nil, p.errf("expected node id, got %q", f[0])
			}
			if id != len(pending) {
				return nil, p.errf("node id %d out of order, want %d", id, len(pending))
			}
			if len(f) < 2 {
				return nil, p.errf("node %d: missing opcode", id)
			}
			op, err := ir.OpFromString(f[1])
			if err != nil {
				return nil, p.errf("node %d: %v", id, err)
			}
			pn := pendingNode{node: ir.Node{Op: op}}
			for _, tok := range f[2:] {
				switch {
				case tok == "!out":
					pn.out = true
				case strings.HasPrefix(tok, "imm="):
					v, err := strconv.ParseInt(tok[4:], 10, 64)
					if err != nil {
						return nil, p.errf("node %d: bad immediate %q", id, tok)
					}
					pn.node.Imm = int32(v)
				case strings.HasPrefix(tok, "n"):
					v, err := strconv.Atoi(tok[1:])
					if err != nil {
						return nil, p.errf("node %d: bad operand %q", id, tok)
					}
					pn.node.Args = append(pn.node.Args, ir.NodeRef(v))
				case strings.HasPrefix(tok, "m"):
					v, err := strconv.ParseInt(tok[1:], 10, 64)
					if err != nil {
						return nil, p.errf("node %d: bad immediate operand %q", id, tok)
					}
					pn.node.Args = append(pn.node.Args, ir.ImmOperand(int32(v)))
				case strings.HasPrefix(tok, "i"):
					v, err := strconv.Atoi(tok[1:])
					if err != nil {
						return nil, p.errf("node %d: bad operand %q", id, tok)
					}
					pn.node.Args = append(pn.node.Args, ir.InputRef(v))
				default:
					return nil, p.errf("node %d: unrecognized token %q", id, tok)
				}
			}
			pending = append(pending, pn)
		}
	}
done:
	blk.Nodes = make([]ir.Node, len(pending))
	blk.LiveOut = graph.NewBitSet(len(pending))
	for i, pn := range pending {
		blk.Nodes[i] = pn.node
		if pn.out {
			blk.LiveOut.Set(i)
		}
	}
	if err := ir.FinishBlock(blk); err != nil {
		return nil, p.errf("%v", err)
	}
	return blk, nil
}

// WriteDOT renders the block as a Graphviz digraph. If cuts is non-empty,
// nodes belonging to cut k are filled with a distinct color and clustered.
func WriteDOT(w io.Writer, b *ir.Block, cuts []*graph.BitSet) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "digraph %q {\n  rankdir=TB;\n  node [shape=box, style=filled, fillcolor=white];\n", b.Name)
	colors := []string{"lightblue", "palegreen", "lightsalmon", "plum", "khaki", "lightpink", "lightcyan", "wheat"}
	cutOf := make([]int, b.N())
	for i := range cutOf {
		cutOf[i] = -1
	}
	for k, c := range cuts {
		c.ForEach(func(i int) bool {
			cutOf[i] = k
			return true
		})
	}
	for i := range b.Nodes {
		nd := &b.Nodes[i]
		label := fmt.Sprintf("%d: %s", i, nd.Op)
		if nd.Op == ir.OpConst {
			label = fmt.Sprintf("%d: const %d", i, nd.Imm)
		}
		attrs := fmt.Sprintf("label=%q", label)
		if k := cutOf[i]; k >= 0 {
			attrs += fmt.Sprintf(", fillcolor=%q", colors[k%len(colors)])
		}
		if b.LiveOut.Has(i) {
			attrs += ", peripheries=2"
		}
		if nd.Op.IsMem() {
			attrs += ", shape=box3d"
		}
		fmt.Fprintf(bw, "  n%d [%s];\n", i, attrs)
	}
	// External inputs drawn once each, connected to all consumers.
	usedInputs := map[int][]int{}
	for i := range b.Nodes {
		for _, a := range b.Nodes[i].Args {
			if a.Kind == ir.FromInput {
				usedInputs[a.Index] = append(usedInputs[a.Index], i)
			}
		}
	}
	inputIDs := make([]int, 0, len(usedInputs))
	for k := range usedInputs {
		inputIDs = append(inputIDs, k)
	}
	sort.Ints(inputIDs)
	for _, k := range inputIDs {
		fmt.Fprintf(bw, "  in%d [label=\"in%d\", shape=ellipse, fillcolor=gray90];\n", k, k)
		for _, c := range usedInputs[k] {
			fmt.Fprintf(bw, "  in%d -> n%d;\n", k, c)
		}
	}
	for i := range b.Nodes {
		for _, a := range b.Nodes[i].Args {
			if a.Kind == ir.FromNode {
				fmt.Fprintf(bw, "  n%d -> n%d;\n", a.Index, i)
			}
		}
	}
	fmt.Fprintln(bw, "}")
	return bw.Flush()
}
