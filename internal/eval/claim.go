package eval

import (
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/reuse"
)

// Claimer turns identified cuts into Selections by finding all isomorphic
// instances of each cut across the application, claiming pairwise-disjoint
// ones and rejecting instances that would create a dependency cycle
// between atomic ISE executions. It is shared by the ISEGEN facade and by
// the experiment harnesses (so the baselines get the same reuse treatment
// as ISEGEN).
type Claimer struct {
	app  *ir.Application
	kept map[int][]claimInfo
	// PerBlockLimit bounds matcher results per block (0 = unlimited;
	// the default from NewClaimer is 256).
	PerBlockLimit int
}

type claimInfo struct {
	nodes *graph.BitSet
	desc  *graph.BitSet
}

// NewClaimer returns a Claimer for the application.
func NewClaimer(app *ir.Application) *Claimer {
	return &Claimer{app: app, kept: map[int][]claimInfo{}, PerBlockLimit: 256}
}

func (c *Claimer) reach(bi int, nodes *graph.BitSet) *graph.BitSet {
	blk := c.app.Blocks[bi]
	d := graph.NewBitSet(blk.N())
	nodes.ForEach(func(v int) bool {
		d.Or(blk.DAG().Desc(v))
		return true
	})
	return d
}

// createsCycle reports whether adding an instance with the given node and
// reach sets to the kept instances of one block would close a dependency
// cycle among atomic ISE executions. Contraction edges A→B exist when some
// node of B is (node-level) reachable from A; the candidate closes a cycle
// when an instance it feeds reaches, through contraction edges, an
// instance feeding it.
func createsCycle(kept []claimInfo, nodes, desc *graph.BitSet) bool {
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

// Claim finds and claims the instances of cut (identified in block
// blockIdx). excluded holds, per block, the nodes unavailable for new
// instances — typically the union of previously claimed instances plus the
// cut's own nodes; Claim extends it with every instance it accepts. The
// returned selection may be empty if even the seed occurrence would form a
// dependency cycle.
func (c *Claimer) Claim(blockIdx int, cut *core.Cut, excluded []*graph.BitSet) Selection {
	avail := make([]*graph.BitSet, len(c.app.Blocks))
	for i, ex := range excluded {
		avail[i] = ex.Complement()
	}
	avail[blockIdx].Or(cut.Nodes) // the matcher must see the seed occurrence

	cands := reuse.FindAppInstances(c.app, blockIdx, cut.Nodes, avail, c.PerBlockLimit)
	picked := reuse.ClaimDisjoint(cands, blockIdx, cut.Nodes)

	sel := Selection{Cut: cut}
	for _, inst := range picked {
		d := c.reach(inst.BlockIdx, inst.Nodes)
		if createsCycle(c.kept[inst.BlockIdx], inst.Nodes, d) {
			continue
		}
		c.kept[inst.BlockIdx] = append(c.kept[inst.BlockIdx], claimInfo{inst.Nodes, d})
		sel.Instances = append(sel.Instances, inst)
		excluded[inst.BlockIdx].Or(inst.Nodes)
	}
	return sel
}

// CountInstances predicts, without claiming anything, how many disjoint
// schedulable instances of the cut could be claimed given the current
// excluded sets — the reuse-aware scoring primitive. Scoring is capped at
// 64 matches per block (enough to rank candidates) and very large cuts
// are assumed unique without searching: patterns beyond ~48 nodes
// essentially never repeat, and matching them is where backtracking cost
// concentrates.
func (c *Claimer) CountInstances(blockIdx int, cut *core.Cut, excluded []*graph.BitSet) int {
	if cut.Size() > 48 {
		return 1
	}
	limit := c.PerBlockLimit
	if limit == 0 || limit > 64 {
		limit = 64
	}
	avail := make([]*graph.BitSet, len(c.app.Blocks))
	for i, ex := range excluded {
		avail[i] = ex.Complement()
	}
	avail[blockIdx].Or(cut.Nodes)
	cands := reuse.FindAppInstances(c.app, blockIdx, cut.Nodes, avail, limit)
	picked := reuse.ClaimDisjoint(cands, blockIdx, cut.Nodes)

	// Simulate the cycle filter against shallow copies of the kept
	// lists, so the real state is untouched.
	tmp := map[int][]claimInfo{}
	count := 0
	for _, inst := range picked {
		bi := inst.BlockIdx
		kept, ok := tmp[bi]
		if !ok {
			kept = append([]claimInfo(nil), c.kept[bi]...)
		}
		d := c.reach(bi, inst.Nodes)
		if createsCycle(kept, inst.Nodes, d) {
			tmp[bi] = kept
			continue
		}
		tmp[bi] = append(kept, claimInfo{inst.Nodes, d})
		count++
	}
	return count
}

// ClaimAllWithReuse converts a list of already-identified cuts (from any
// algorithm) into Selections with full reuse: each cut's nodes are
// reserved up front, then instances are claimed cut by cut.
func ClaimAllWithReuse(app *ir.Application, cuts []*core.Cut, blockIdxOf func(*core.Cut) int) []Selection {
	excluded := make([]*graph.BitSet, len(app.Blocks))
	for i, blk := range app.Blocks {
		excluded[i] = graph.NewBitSet(blk.N())
	}
	for _, cut := range cuts {
		excluded[blockIdxOf(cut)].Or(cut.Nodes)
	}
	cl := NewClaimer(app)
	var sels []Selection
	for _, cut := range cuts {
		sel := cl.Claim(blockIdxOf(cut), cut, excluded)
		if len(sel.Instances) > 0 {
			sels = append(sels, sel)
		}
	}
	return sels
}
