package eval

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dfggen"
	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/latency"
	"repro/internal/reuse"
)

// refInst is one kept instance of the reference check: its nodes and
// their node-level descendants.
type refInst struct {
	nodes, desc *graph.BitSet
}

func descOf(blk *ir.Block, nodes *graph.BitSet) *graph.BitSet {
	d := graph.NewBitSet(blk.N())
	nodes.ForEach(func(v int) bool {
		d.Or(blk.DAG().Desc(v))
		return true
	})
	return d
}

// createsCycle is the definitional reference for schedule.add: it
// reports whether adding an instance with the given node and reach sets
// to the kept instances of one block would close a dependency cycle among
// atomic ISE executions. Contraction edges A→B exist when some node of B
// is (node-level) reachable from A; the candidate closes a cycle when an
// instance it feeds reaches, through contraction edges, an instance
// feeding it. It runs a BFS over the contraction graph.
func createsCycle(kept []refInst, nodes, desc *graph.BitSet) bool {
	k := len(kept)
	if k == 0 {
		return false
	}
	var fedByCand, feedsCand []int
	for i, ki := range kept {
		if desc.Intersects(ki.nodes) {
			fedByCand = append(fedByCand, i)
		}
		if ki.desc.Intersects(nodes) {
			feedsCand = append(feedsCand, i)
		}
	}
	if len(fedByCand) == 0 || len(feedsCand) == 0 {
		return false
	}
	target := make([]bool, k)
	for _, i := range feedsCand {
		target[i] = true
	}
	seen := make([]bool, k)
	queue := append([]int(nil), fedByCand...)
	for _, i := range queue {
		seen[i] = true
	}
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		if target[i] {
			return true
		}
		for j, kj := range kept {
			if !seen[j] && kept[i].desc.Intersects(kj.nodes) {
				seen[j] = true
				queue = append(queue, j)
			}
		}
	}
	return false
}

// randomInstance returns a convex set of up to three pieces, each grown
// from a random free seed along data edges to at most two nodes, avoiding
// used nodes; nil when no piece fits. Instances with several pieces are
// what close cycles between instances.
func randomInstance(rng *rand.Rand, blk *ir.Block, used *graph.BitSet) *graph.BitSet {
	dag := blk.DAG()
	set := graph.NewBitSet(blk.N())
	for pieces := 2 + rng.Intn(2); pieces > 0; pieces-- {
		v := rng.Intn(blk.N())
		if used.Has(v) || set.Has(v) {
			continue
		}
		piece := []int{v}
		if nbrs := append(append([]int(nil), dag.Preds(v)...), dag.Succs(v)...); len(nbrs) > 0 && rng.Intn(2) == 0 {
			if w := nbrs[rng.Intn(len(nbrs))]; !used.Has(w) && !set.Has(w) {
				piece = append(piece, w)
			}
		}
		for _, u := range piece {
			set.Set(u)
		}
		if !dag.IsConvex(set) {
			for _, u := range piece {
				set.Clear(u)
			}
		}
	}
	if set.Empty() {
		return nil
	}
	return set
}

// ring picks m = 2 or 3 unused data edges u_i→v_i on distinct nodes and
// returns the two-node instances {u_i, v_(i-1 mod m)} in a random order,
// or nil when a few tries find no such convex ring. Each instance feeds
// the next one around the ring, so whichever comes last closes a cycle
// through the others (through two of them for m = 3); random instances
// rarely do.
func ring(rng *rand.Rand, blk *ir.Block, used *graph.BitSet) []*graph.BitSet {
	dag := blk.DAG()
	m := 2 + rng.Intn(2)
	us, vs := make([]int, m), make([]int, m)
	out := make([]*graph.BitSet, m)
try:
	for try := 0; try < 16; try++ {
		taken := used.Clone()
		for i := range us {
			u := rng.Intn(blk.N())
			succs := dag.Succs(u)
			if taken.Has(u) || len(succs) == 0 {
				continue try
			}
			v := succs[rng.Intn(len(succs))]
			if taken.Has(v) {
				continue try
			}
			us[i], vs[i] = u, v
			taken.Set(u)
			taken.Set(v)
		}
		for i := range out {
			out[i] = graph.NewBitSet(blk.N())
			out[i].Set(us[i])
			out[i].Set(vs[(i+m-1)%m])
			if !dag.IsConvex(out[i]) {
				continue try
			}
		}
		rng.Shuffle(m, func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	return nil
}

// dump renders a schedule's kept instances and closure sets, so tests can
// compare states byte for byte.
func dump(s *schedule) string {
	var sb strings.Builder
	for bi, kept := range s.kept {
		for _, k := range kept {
			fmt.Fprintf(&sb, "%d %v %v\n", bi, k.nodes, k.cr)
		}
	}
	return sb.String()
}

// TestScheduleMatchesBFS drives schedule.add on dfggen blocks with
// sequences of disjoint convex instances, random ones and rings that
// close cycles, and checks every decision against the BFS reference.
// Every fifth sequence runs dry: its decisions are checked too, and
// rollback must restore the schedule byte for byte.
func TestScheduleMatchesBFS(t *testing.T) {
	rng := dfggen.Seeded(20261019)
	p := dfggen.DefaultParams()
	p.MinNodes, p.MaxNodes = 12, 48
	const blocks = 320
	checks, cycles := 0, 0
	for b := 0; b < blocks; b++ {
		blk := dfggen.Block(rng, p)
		s := newSchedule(&ir.Application{Name: "rand", Blocks: []*ir.Block{blk}})
		var ref []refInst
		used := graph.NewBitSet(blk.N())
		// run feeds seq through add, checking each decision against
		// the BFS over ref, and returns ref extended by what was kept.
		run := func(ref []refInst, seq []*graph.BitSet) []refInst {
			for _, x := range seq {
				d := descOf(blk, x)
				want := !createsCycle(ref, x, d)
				if got := s.add(0, x); got != want {
					t.Fatalf("block %d: add(%v) = %v, BFS says %v (kept %d)", b, x, got, want, len(ref))
				}
				checks++
				if want {
					ref = append(ref, refInst{x, d})
				} else {
					cycles++
				}
			}
			return ref
		}
		for step := 0; step < blk.N(); step++ {
			var seq []*graph.BitSet
			if rng.Intn(8) != 0 {
				seq = ring(rng, blk, used)
			} else if x := randomInstance(rng, blk, used); x != nil {
				seq = []*graph.BitSet{x}
			}
			if step%5 == 4 {
				before := dump(&s)
				s.dry = true
				run(append([]refInst(nil), ref...), seq)
				s.rollback()
				if after := dump(&s); after != before {
					t.Fatalf("block %d: rollback changed the schedule:\n%s\nwant\n%s", b, after, before)
				}
				continue
			}
			for _, x := range seq {
				used.Or(x)
			}
			ref = run(ref, seq)
		}
	}
	t.Logf("%d blocks, %d checks, %d found a cycle", blocks, checks, cycles)
	if cycles*4 < checks {
		t.Errorf("only %d of %d checks found a cycle; want at least a quarter", cycles, checks)
	}
}

// TestCountInstancesIsDryClaim scores random cuts on dfggen applications
// and then claims them: each score must equal the number of instances the
// claim keeps, and the scoring dry run must leave the schedule byte for
// byte as it was. Claims accumulate, so later cuts meet cycles.
func TestCountInstancesIsDryClaim(t *testing.T) {
	rng := dfggen.Seeded(7)
	p := dfggen.DefaultParams()
	p.MinNodes, p.MaxNodes = 16, 40
	model := latency.Default()
	counted, rejected := 0, 0
	for a := 0; a < 60; a++ {
		app := dfggen.Application(rng, p)
		cl := NewClaimer(app)
		excluded := make([]*graph.BitSet, len(app.Blocks))
		for i, blk := range app.Blocks {
			excluded[i] = graph.NewBitSet(blk.N())
		}
		for c := 0; c < 12; c++ {
			bi := rng.Intn(len(app.Blocks))
			blk := app.Blocks[bi]
			nodes := randomInstance(rng, blk, excluded[bi])
			if nodes == nil {
				continue
			}
			m := core.MetricsOf(blk, model, nodes)
			cut := &core.Cut{Block: blk, Nodes: nodes, NumIn: m.NumIn, NumOut: m.NumOut, SWLat: m.SWLat, HWLat: m.HWLat}
			excluded[bi].Or(nodes)

			before := dump(&cl.sched)
			n := cl.CountInstances(bi, cut, excluded)
			if after := dump(&cl.sched); after != before {
				t.Fatalf("app %d cut %d: CountInstances changed the schedule:\n%s\nwant\n%s", a, c, after, before)
			}
			avail := make([]*graph.BitSet, len(excluded))
			for i, ex := range excluded {
				avail[i] = ex.Complement()
			}
			avail[bi].Or(nodes)
			picked := reuse.ClaimDisjoint(reuse.FindAppInstances(app, bi, nodes, avail, claimLimit), bi, nodes)
			sel := cl.Claim(bi, cut, excluded)
			if n != len(sel.Instances) {
				t.Fatalf("app %d cut %d: CountInstances = %d, Claim kept %d", a, c, n, len(sel.Instances))
			}
			counted++
			rejected += len(picked) - n
		}
	}
	t.Logf("%d cuts scored and claimed, %d matched instances rejected as cyclic", counted, rejected)
	if rejected == 0 {
		t.Error("no claim met a cycle; the dry run's rejection path went untested")
	}
}
