package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dfggen"
	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/kernels"
)

// pinTrajectories runs every restart trajectory of a fresh engine both
// through Engine.TrajectoryContext and through refTrajectory and requires the two
// snapshot pools to be bit-identical.
func pinTrajectories(t *testing.T, name string, blk *ir.Block, cfg Config, excluded *graph.BitSet) {
	t.Helper()
	eng, err := NewEngine(blk, cfg, excluded)
	if err != nil {
		t.Fatal(err)
	}
	var want, got [][]Candidate
	for _, seed := range eng.Seeds() {
		want = append(want, refTrajectory(eng, seed))
		got = append(got, runTrajectory(t, eng, seed))
	}
	assertSameTrajectories(t, name, want, got)
}

// runTrajectory runs one uncancelled K-L trajectory from seed.
func runTrajectory(t *testing.T, eng *Engine, seed *graph.BitSet) []Candidate {
	t.Helper()
	snaps, err := eng.TrajectoryContext(context.Background(), seed)
	if err != nil {
		t.Fatal(err)
	}
	return snaps
}

// assertSameTrajectories requires two trajectory pools to be bit-identical:
// same snapshot counts, node sets and recorded merits, seed by seed.
func assertSameTrajectories(t *testing.T, name string, want, got [][]Candidate) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d seeds want vs %d got", name, len(want), len(got))
	}
	for si := range want {
		if len(want[si]) != len(got[si]) {
			t.Fatalf("%s seed %d: %d snapshots want vs %d got", name, si, len(want[si]), len(got[si]))
		}
		for i := range want[si] {
			w, g := want[si][i], got[si][i]
			if !w.Nodes.Equal(g.Nodes) {
				t.Fatalf("%s seed %d snapshot %d: cut %v want vs %v got", name, si, i, w.Nodes, g.Nodes)
			}
			if w.Merit != g.Merit {
				t.Fatalf("%s seed %d snapshot %d: merit %v want vs %v got (must be bit-identical)", name, si, i, w.Merit, g.Merit)
			}
		}
	}
}

// TestIncrementalTrajectoryPinning pins the incremental hot path — probe
// digests, the slot-maintained component table of the α5 gain term and
// the incremental critical-path updates on Toggle — against refTrajectory
// on random blocks: every restart trajectory must pass through exactly
// the same snapshots with exactly the same merits.
func TestIncrementalTrajectoryPinning(t *testing.T) {
	rng := rand.New(rand.NewSource(20260726))
	cfg := DefaultConfig()
	for trial := 0; trial < 30; trial++ {
		blk := randKernelBlock(rng, 8+rng.Intn(60))
		pinTrajectories(t, blk.Name, blk, cfg, nil)
	}
}

// TestIncrementalTrajectoryPinningKernels runs the same comparison on the
// real kernel-suite blocks, including a multi-round drive with a growing
// excluded set (the shape the search driver produces), under tightened and
// loosened port constraints.
func TestIncrementalTrajectoryPinningKernels(t *testing.T) {
	for _, spec := range kernels.All() {
		for _, io := range [][2]int{{4, 2}, {2, 1}} {
			cfg := DefaultConfig()
			cfg.MaxIn, cfg.MaxOut = io[0], io[1]
			for _, blk := range spec.App.Blocks {
				excluded := graph.NewBitSet(blk.N())
				// Two driver rounds: the second freezes the first
				// round's best cut, exercising a changed frozen set.
				for round := 0; round < 2; round++ {
					pinTrajectories(t, spec.Name+"/"+blk.Name, blk, cfg, excluded)

					eng, err := NewEngine(blk, cfg, excluded)
					if err != nil {
						t.Fatal(err)
					}
					if best := eng.Bipartition(); best != nil {
						excluded.Or(best.Nodes)
					} else {
						break
					}
				}
			}
		}
	}
}

// gainCacheBlockCount sizes TestGainCacheTrajectoryPinning's sweep.
const gainCacheBlockCount = 500

// gainCacheCase derives the generator shape and port limits of one sweep
// seed: the same five profiles as the differential gate's pinned cases
// (port tightness, memory density, graph shape).
func gainCacheCase(seed int64) (p dfggen.Params, maxIn, maxOut int) {
	p = dfggen.DefaultParams()
	maxIn, maxOut = 4, 2
	switch seed % 5 {
	case 1: // tight ports: feasibility boundary stress
		maxIn, maxOut = 2, 1
	case 2: // larger, memory-heavy blocks: forbidden-op placement
		p.MinNodes, p.MaxNodes = 10, 20
		p.MemFrac = 0.3
	case 3: // broad shallow graphs under generous ports
		p.Locality = 0
		p.InputFrac = 0.45
		maxIn, maxOut = 6, 3
	case 4: // deep chains, immediate-heavy, single-input pool
		p.Locality = 2
		p.ImmFrac = 0.3
		p.MaxInputs = 2
		p.MotifFrac = 0.5
	}
	return p, maxIn, maxOut
}

// TestGainCacheTrajectoryPinning is the property sweep for the O(1)
// candidate-gain cache: across generated blocks spanning the pinned
// profile spread, every K-L trajectory must be bit-identical — same
// snapshot count, same cut bits, same float merits — to refTrajectory
// from the same seed. This guards that the digest invalidation/patching
// rules never let a stale entry reach a gain decision.
func TestGainCacheTrajectoryPinning(t *testing.T) {
	for seed := int64(1); seed <= gainCacheBlockCount; seed++ {
		p, maxIn, maxOut := gainCacheCase(seed)
		blk := dfggen.Block(dfggen.Seeded(8000+seed), p)
		cfg := DefaultConfig()
		cfg.MaxIn, cfg.MaxOut = maxIn, maxOut
		pinTrajectories(t, fmt.Sprintf("seed %d", seed), blk, cfg, nil)
	}
}

// TestIncrementalCPToggleSequences pins the incremental critical-path
// maintenance — addCPUpdate and removeCPUpdate, including the remove
// path's is-critical classification — against SetCut's full relabel sweep
// on long random toggle sequences: after every single toggle, level, tail
// and hwCP must be bit-identical between a toggled State and a second one
// that only ever receives SetCut of the first one's cut. Random sequences
// revisit nodes, so removals hit both critical and non-critical nodes in
// cuts of every shape.
func TestIncrementalCPToggleSequences(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	cfg := DefaultConfig()
	for trial := 0; trial < 25; trial++ {
		blk := randKernelBlock(rng, 10+rng.Intn(50))
		incr := NewState(blk, cfg.Model, nil)
		full := NewState(blk, cfg.Model, nil)
		var free []int
		for v := 0; v < blk.N(); v++ {
			if !incr.Frozen.Has(v) {
				free = append(free, v)
			}
		}
		if len(free) == 0 {
			continue
		}
		for step := 0; step < 4*len(free); step++ {
			v := free[rng.Intn(len(free))]
			incr.Toggle(v)
			full.SetCut(incr.H)
			if incr.hwCP != full.hwCP {
				t.Fatalf("%s step %d (toggle %d): hwCP %v incremental vs %v full", blk.Name, step, v, incr.hwCP, full.hwCP)
			}
			for u := 0; u < blk.N(); u++ {
				if incr.level[u] != full.level[u] || incr.tail[u] != full.tail[u] {
					t.Fatalf("%s step %d (toggle %d): node %d labels (%v,%v) incremental vs (%v,%v) full",
						blk.Name, step, v, u, incr.level[u], incr.tail[u], full.level[u], full.tail[u])
				}
			}
			if incr.Merit() != full.Merit() {
				t.Fatalf("%s step %d: merit %v incremental vs %v full", blk.Name, step, incr.Merit(), full.Merit())
			}
		}
	}
}

// TestGainContextMatchesRebuild pins the slot-maintained component table
// of the α5 term against a from-scratch rebuild: one State takes random
// toggles, one gain context follows them through noteToggle, a second one
// is rebuilt before every comparison, and every candidate's gain must be
// bit-identical between the two. The trajectory pins compare only argmax
// decisions, which a slightly wrong α5 term can leave unchanged.
func TestGainContextMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(20261018))
	cfg := DefaultConfig()
	for trial := 0; trial < 25; trial++ {
		blk := randKernelBlock(rng, 10+rng.Intn(50))
		st := NewState(blk, cfg.Model, nil)
		incr := &trajectory{cfg: &cfg, st: st}
		ref := &trajectory{cfg: &cfg, st: st}
		var free []int
		for v := 0; v < blk.N(); v++ {
			if !st.Frozen.Has(v) {
				free = append(free, v)
			}
		}
		if len(free) == 0 {
			continue
		}
		for step := 0; step < 4*len(free); step++ {
			v := free[rng.Intn(len(free))]
			st.Toggle(v)
			incr.gc.noteToggle(st, v)
			incr.prepareGainContext()
			ref.gc.rebuild(st)
			ref.prepareGainContext()
			if incr.gc.totalCP != ref.gc.totalCP {
				t.Fatalf("%s step %d (toggle %d): totalCP %v incremental vs %v rebuilt", blk.Name, step, v, incr.gc.totalCP, ref.gc.totalCP)
			}
			for _, u := range free {
				eff := probeRef(st, u)
				if gi, gr := incr.gain(u, eff), ref.gain(u, eff); gi != gr {
					t.Fatalf("%s step %d (toggle %d): gain(%d) %v incremental vs %v rebuilt", blk.Name, step, v, u, gi, gr)
				}
			}
		}
		if incr.gc.rebuilds >= ref.gc.rebuilds {
			t.Fatalf("%s: incremental context rebuilt %d times of %d steps, want fewer", blk.Name, incr.gc.rebuilds, ref.gc.rebuilds)
		}
	}
}

// TestPooledTrajectoryReuse pins that reusing one engine's pooled
// workspace across many sequential trajectories changes nothing: running
// the full seed fan-out twice on the same engine must reproduce the first
// pass exactly (the pool hands back dirty States that SetCut renormalizes).
func TestPooledTrajectoryReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cfg := DefaultConfig()
	for trial := 0; trial < 10; trial++ {
		blk := randKernelBlock(rng, 20+rng.Intn(40))
		eng, err := NewEngine(blk, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		seeds := eng.Seeds()
		var first, second [][]Candidate
		for _, seed := range seeds {
			first = append(first, runTrajectory(t, eng, seed))
		}
		for _, seed := range seeds {
			second = append(second, runTrajectory(t, eng, seed))
		}
		assertSameTrajectories(t, blk.Name, first, second)
	}
}

// TestFinalizeHashDedupEquivalence pins the word-hash candidate dedup
// against the quadratic reference on snapshot pools crafted to stress the
// hash index: duplicated snapshots, permuted arrival order, and families
// of cuts sharing long equal word prefixes (the regime where a weak hash
// would collapse buckets and a broken bucket walk would drop or duplicate
// candidates).
func TestFinalizeHashDedupEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	blk := randKernelBlock(rng, 80)
	cfg := DefaultConfig()
	eng, err := NewEngine(blk, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Build a synthetic snapshot pool: prefix chains {0..k} restricted to
	// unfrozen nodes, plus real trajectory snapshots, each appearing
	// several times.
	st := NewState(blk, cfg.Model, nil)
	var snaps []Candidate
	chain := graph.NewBitSet(blk.N())
	for v := 0; v < blk.N(); v++ {
		if st.Frozen.Has(v) {
			continue
		}
		chain.Set(v)
		snaps = append(snaps, Candidate{Nodes: chain.Clone()})
	}
	for _, seed := range eng.Seeds() {
		snaps = append(snaps, runTrajectory(t, eng, seed)...)
	}
	snaps = append(snaps, snaps...) // force duplicates
	rng.Shuffle(len(snaps), func(i, j int) { snaps[i], snaps[j] = snaps[j], snaps[i] })

	// Quadratic reference: first-appearance dedup over snapshots plus
	// their component decompositions, in Finalize's pool order.
	dag := blk.DAG()
	var refPool []Candidate
	refPool = append(refPool, snaps...)
	for _, c := range snaps {
		comps := dag.ComponentsOf(c.Nodes)
		if len(comps) < 2 {
			continue
		}
		for _, comp := range comps {
			sub := graph.NewBitSet(blk.N())
			for _, v := range comp {
				sub.Set(v)
			}
			refPool = append(refPool, Candidate{Nodes: sub})
		}
	}
	var refUniq []*graph.BitSet
	for _, c := range refPool {
		dup := false
		for _, u := range refUniq {
			if u.Equal(c.Nodes) {
				dup = true
				break
			}
		}
		if !dup {
			refUniq = append(refUniq, c.Nodes)
		}
	}
	refCuts := make(map[string]bool)
	var refOrder []string
	for _, u := range refUniq {
		m := MetricsOf(blk, cfg.Model, u)
		if m.Merit() > 0 {
			refCuts[u.String()] = true
			refOrder = append(refOrder, u.String())
		}
	}

	got := eng.Finalize(snaps)
	if len(got) != len(refOrder) {
		t.Fatalf("Finalize returned %d cuts, reference has %d", len(got), len(refOrder))
	}
	for _, c := range got {
		if !refCuts[c.Nodes.String()] {
			t.Fatalf("Finalize returned cut %v not in the reference set", c.Nodes)
		}
	}
	// And determinism: a second Finalize over the same pool must agree.
	again := eng.Finalize(snaps)
	if len(again) != len(got) {
		t.Fatalf("Finalize not deterministic: %d then %d cuts", len(got), len(again))
	}
	for i := range got {
		if !got[i].Nodes.Equal(again[i].Nodes) {
			t.Fatalf("Finalize order not deterministic at %d: %v vs %v", i, got[i].Nodes, again[i].Nodes)
		}
	}
}
