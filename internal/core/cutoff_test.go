package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dfggen"
	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/kernels"
)

// cutoffOracle recomputes the pass-cutoff witnesses from scratch over
// Fin = marked ∩ H and Fout = (marked \ H) ∪ Frozen.
func cutoffOracle(st *State, marked *graph.BitSet) (nOut, nIn int, viol bool) {
	blk, dag, n := st.Blk, st.Blk.DAG(), st.n
	fin := marked.Clone()
	fin.And(st.H)
	fout := marked.Clone()
	fout.AndNot(st.H)
	fout.Or(st.Frozen)
	ins := graph.NewBitSet(blk.NumValues())
	below, above := graph.NewBitSet(n), graph.NewBitSet(n)
	for x := fin.NextSet(0); x >= 0; x = fin.NextSet(x + 1) {
		out := blk.LiveOut.Has(x)
		for _, u := range blk.Uses(x) {
			out = out || fout.Has(u)
		}
		if out {
			nOut++
		}
		for _, src := range blk.Srcs(x) {
			if src >= n || fout.Has(src) {
				ins.Set(src)
			}
		}
		below.Or(dag.Desc(x))
		above.Or(dag.Anc(x))
	}
	below.And(above)
	return nOut, ins.Count(), below.Intersects(fout)
}

// cutoffStats tallies a soundness sweep.
type cutoffStats struct{ steps, afterFire, fires int }

// fullPassTrajectory runs klLoop with every pass toggling every unfrozen
// node — the loop without the pass cutoff — and returns its snapshots.
// After each toggle it feeds the step to a passCutoff, requires the
// witnesses to equal cutoffOracle, requires each witness to bound the
// costed state (forced ports are at most its ports, a forced violator
// makes it non-convex), and from the step the witnesses fire on, requires
// every later state of the pass to fail MetricsOf feasibility.
func fullPassTrajectory(t *testing.T, e *Engine, start *graph.BitSet, stats *cutoffStats) []Candidate {
	t.Helper()
	n := e.blk.N()
	tr := &trajectory{
		cfg:     &e.cfg,
		st:      NewState(e.blk, e.cfg.Model, e.excluded),
		marked:  graph.NewBitSet(n),
		curBest: graph.NewBitSet(n),
		arena:   graph.NewBitSetArena(n),
		cutoff:  newPassCutoff(n, e.blk.NumValues()),
	}
	st, cfg := tr.st, e.cfg
	best := start.Clone()
	bestMerit := 0.0
	st.SetCut(best)
	if st.Feasible(cfg.MaxIn, cfg.MaxOut) {
		if bestMerit = st.Merit(); bestMerit > 0 {
			tr.snaps = append(tr.snaps, Candidate{best.Clone(), bestMerit})
		}
	}
	for pass := 0; pass < cfg.MaxPasses; pass++ {
		st.SetCut(best)
		tr.gc.invalidate()
		tr.marked.Reset()
		tr.cutoff.reset()
		tr.curBestMerit, tr.curBestOK = bestMerit, false
		fired := false
		for step := 0; ; step++ {
			v, _ := tr.selectBestGain()
			if v < 0 {
				break
			}
			st.Toggle(v)
			tr.gc.noteToggle(st, v)
			tr.marked.Set(v)
			if st.Feasible(cfg.MaxIn, cfg.MaxOut) {
				if m := st.Merit(); m > tr.curBestMerit {
					tr.curBestMerit, tr.curBestOK = m, true
					tr.curBest.CopyFrom(st.H)
					if m > 0 {
						tr.snaps = append(tr.snaps, Candidate{st.Cut(), m})
					}
				}
			}
			stats.steps++
			if fired {
				stats.afterFire++
			}
			got := tr.cutoff.note(st, tr.marked, v, cfg.MaxIn, cfg.MaxOut)
			c := &tr.cutoff
			where := func() string {
				return fmt.Sprintf("%s (%d,%d) seed %v pass %d step %d (toggle %d)", e.blk.Name, cfg.MaxIn, cfg.MaxOut, start, pass, step, v)
			}
			wOut, wIn, wViol := cutoffOracle(st, tr.marked)
			if c.nOut != wOut || c.nIn != wIn || c.viol != wViol {
				t.Fatalf("%s: witnesses (out %d, in %d, viol %v), oracle (%d, %d, %v)", where(), c.nOut, c.nIn, c.viol, wOut, wIn, wViol)
			}
			if want := wOut > cfg.MaxOut || wIn > cfg.MaxIn || wViol; got != want {
				t.Fatalf("%s: note = %v, oracle says %v", where(), got, want)
			}
			m := MetricsOf(e.blk, cfg.Model, st.H)
			if m.NumOut < wOut || m.NumIn < wIn || (wViol && m.Convex()) {
				t.Fatalf("%s: state (out %d, in %d, convex %v) escapes witnesses (%d, %d, %v)", where(), m.NumOut, m.NumIn, m.Convex(), wOut, wIn, wViol)
			}
			if got && !fired {
				fired = true
				stats.fires++
			}
			if fired && !st.H.Empty() && m.Convex() && m.NumIn <= cfg.MaxIn && m.NumOut <= cfg.MaxOut {
				t.Fatalf("%s: feasible state after the cutoff fired", where())
			}
		}
		if !tr.curBestOK {
			break
		}
		best.CopyFrom(tr.curBest)
		bestMerit = tr.curBestMerit
	}
	return tr.snaps
}

// checkCutoff runs every restart trajectory of one engine both with full
// passes under fullPassTrajectory's checks and through the production
// TrajectoryContext, and requires the same snapshots.
func checkCutoff(t *testing.T, blk *ir.Block, maxIn, maxOut int, excluded *graph.BitSet, stats *cutoffStats) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.MaxIn, cfg.MaxOut = maxIn, maxOut
	eng, err := NewEngine(blk, cfg, excluded)
	if err != nil {
		t.Fatal(err)
	}
	var want, got [][]Candidate
	for _, seed := range eng.Seeds() {
		want = append(want, fullPassTrajectory(t, eng, seed, stats))
		got = append(got, runTrajectory(t, eng, seed))
	}
	assertSameTrajectories(t, fmt.Sprintf("%s (%d,%d)", blk.Name, maxIn, maxOut), want, got)
}

// TestPassCutoffSound checks the pass cutoff's witnesses against a
// from-scratch oracle at every step of full K-L passes, checks that every
// state after they fire is infeasible, and pins the cut-short production
// trajectories to the full-pass ones. It covers AES, the Figure 4 blocks
// and generated blocks at five port points, a third of the generated
// blocks with a random excluded set (frozen nodes are fixed outside).
func TestPassCutoffSound(t *testing.T) {
	var stats cutoffStats
	var blocks []*ir.Block
	for _, spec := range kernels.All() {
		blocks = append(blocks, spec.App.Blocks...)
	}
	for _, blk := range blocks {
		for _, io := range snapshotGoldenIO {
			checkCutoff(t, blk, io[0], io[1], nil, &stats)
		}
	}
	count := 300
	if testing.Short() {
		count = 60
	}
	p := dfggen.DefaultParams()
	p.MinNodes, p.MaxNodes = 8, 120
	rng := rand.New(rand.NewSource(20261019))
	for i := 0; i < count; i++ {
		blk := dfggen.Block(dfggen.Seeded(int64(41000+i)), p)
		var excluded *graph.BitSet
		if i%3 == 2 {
			excluded = graph.NewBitSet(blk.N())
			for v := 0; v < blk.N(); v++ {
				if rng.Intn(10) == 0 {
					excluded.Set(v)
				}
			}
		}
		io := snapshotGoldenIO[i%len(snapshotGoldenIO)]
		checkCutoff(t, blk, io[0], io[1], excluded, &stats)
	}
	if !testing.Short() {
		aes := kernels.AES().Blocks[0]
		for _, io := range [][2]int{{4, 2}, {2, 1}} {
			checkCutoff(t, aes, io[0], io[1], nil, &stats)
		}
	}
	t.Logf("%d toggle steps, %d passes cut short, %d steps after the cutoff fired", stats.steps, stats.fires, stats.afterFire)
	if stats.fires == 0 {
		t.Fatal("the cutoff never fired: the sweep checks nothing")
	}
}
