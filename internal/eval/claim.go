package eval

import (
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/reuse"
)

// Matcher caps per block. Claiming keeps up to claimLimit matches.
// Scoring only ranks candidates, so scoreLimit matches are enough, and
// cuts over scoreMaxNodes are scored as unique without searching:
// patterns that large essentially never repeat, and matching them is
// where backtracking cost concentrates.
const (
	claimLimit    = 256
	scoreLimit    = 64
	scoreMaxNodes = 48
)

// schedule holds the ISE instances kept so far per block, in the order
// they were kept. Contracting each to one atomic node gives an edge A→B
// when B holds a node-level descendant of A, and a block is schedulable
// while these edges form no cycle. Each kept A carries its closure set
// CR(A): the node-level descendants of A and of every instance reachable
// from A through instances kept before A.
type schedule struct {
	app   *ir.Application
	kept  [][]keptInst
	dry   bool // add logs the blocks it appends to in added
	added []int
}

type keptInst struct{ nodes, cr *graph.BitSet }

func newSchedule(app *ir.Application) schedule {
	return schedule{app: app, kept: make([][]keptInst, len(app.Blocks))}
}

// add keeps the instance nodes (X) of block bi and reports true, unless X
// would close a cycle. It scans the kept instances in order with cr =
// desc(X): when cr meets A, X reaches A, so X is rejected if CR(A) meets
// X and cr takes in CR(A) otherwise. A kept X gets cr as CR(X). DESIGN.md
// ("Reuse matcher cost") shows why the scan is exact and earlier closure
// sets never need updating.
func (s *schedule) add(bi int, nodes *graph.BitSet) bool {
	blk := s.app.Blocks[bi]
	cr := graph.NewBitSet(blk.N())
	nodes.ForEach(func(v int) bool {
		cr.Or(blk.DAG().Desc(v))
		return true
	})
	for _, a := range s.kept[bi] {
		if cr.Intersects(a.nodes) {
			if a.cr.Intersects(nodes) {
				return false
			}
			cr.Or(a.cr)
		}
	}
	if s.dry {
		s.added = append(s.added, bi)
	}
	s.kept[bi] = append(s.kept[bi], keptInst{nodes, cr})
	return true
}

// rollback drops every instance added since dry was set, and clears dry.
func (s *schedule) rollback() {
	for _, bi := range s.added {
		s.kept[bi] = s.kept[bi][:len(s.kept[bi])-1]
	}
	s.added, s.dry = s.added[:0], false
}

// keep filters insts in place down to the ones add keeps, in order.
func (s *schedule) keep(insts []reuse.Instance) []reuse.Instance {
	kept := insts[:0]
	for _, inst := range insts {
		if s.add(inst.BlockIdx, inst.Nodes) {
			kept = append(kept, inst)
		}
	}
	return kept
}

// Claimer turns identified cuts into Selections by finding all isomorphic
// instances of each cut across the application, claiming pairwise-disjoint
// ones and rejecting instances that would create a dependency cycle
// between atomic ISE executions. It is shared by the ISEGEN facade and by
// the experiment harnesses (so the baselines get the same reuse treatment
// as ISEGEN).
type Claimer struct{ sched schedule }

// NewClaimer returns a Claimer for the application.
func NewClaimer(app *ir.Application) *Claimer {
	return &Claimer{newSchedule(app)}
}

// claim matches cut (from block blockIdx) on the nodes not excluded plus
// the seed occurrence, at most limit per block, and adds pairwise-disjoint
// matches (the seed first) to the schedule, returning those it keeps.
func (c *Claimer) claim(blockIdx int, cut *core.Cut, excluded []*graph.BitSet, limit int) []reuse.Instance {
	avail := make([]*graph.BitSet, len(excluded))
	for i, ex := range excluded {
		avail[i] = ex.Complement()
	}
	avail[blockIdx].Or(cut.Nodes)
	cands := reuse.FindAppInstances(c.sched.app, blockIdx, cut.Nodes, avail, limit)
	return c.sched.keep(reuse.ClaimDisjoint(cands, blockIdx, cut.Nodes))
}

// Claim finds and claims the instances of cut (identified in block
// blockIdx). excluded holds, per block, the nodes unavailable for new
// instances — typically the union of previously claimed instances plus the
// cut's own nodes; Claim extends it with every instance it accepts. The
// returned selection may be empty if even the seed occurrence would form a
// dependency cycle.
func (c *Claimer) Claim(blockIdx int, cut *core.Cut, excluded []*graph.BitSet) Selection {
	insts := c.claim(blockIdx, cut, excluded, claimLimit)
	for _, inst := range insts {
		excluded[inst.BlockIdx].Or(inst.Nodes)
	}
	return Selection{Cut: cut, Instances: insts}
}

// CountInstances predicts, without claiming anything, how many disjoint
// schedulable instances of the cut could be claimed given the current
// excluded sets — the reuse-aware scoring primitive. It claims them on a
// dry run of the schedule and rolls the claims back.
func (c *Claimer) CountInstances(blockIdx int, cut *core.Cut, excluded []*graph.BitSet) int {
	if cut.Size() > scoreMaxNodes {
		return 1
	}
	c.sched.dry = true
	n := len(c.claim(blockIdx, cut, excluded, scoreLimit))
	c.sched.rollback()
	return n
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
