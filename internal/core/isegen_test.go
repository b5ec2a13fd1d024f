package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/kernels"
	"repro/internal/latency"
	"repro/internal/obs"
)

func mustBipartition(t *testing.T, blk *ir.Block, cfg Config) *Cut {
	t.Helper()
	eng, err := NewEngine(blk, cfg, nil)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	return eng.Bipartition()
}

// assertFeasible checks the returned cut against the reference
// implementations of every architectural constraint.
func assertFeasible(t *testing.T, blk *ir.Block, cut *Cut, cfg Config) {
	t.Helper()
	if cut == nil {
		t.Fatal("expected a cut")
	}
	m := MetricsOf(blk, cfg.Model, cut.Nodes)
	if !m.Convex() {
		t.Errorf("cut %v is not convex", cut.Nodes)
	}
	if m.NumIn > cfg.MaxIn || m.NumOut > cfg.MaxOut {
		t.Errorf("cut io (%d,%d) exceeds (%d,%d)", m.NumIn, m.NumOut, cfg.MaxIn, cfg.MaxOut)
	}
	if m.NumIn != cut.NumIn || m.NumOut != cut.NumOut {
		t.Errorf("reported io (%d,%d) != reference (%d,%d)", cut.NumIn, cut.NumOut, m.NumIn, m.NumOut)
	}
	if m.SWLat != cut.SWLat || math.Abs(m.HWLat-cut.HWLat) > 1e-9 {
		t.Errorf("reported latency (%d,%v) != reference (%d,%v)", cut.SWLat, cut.HWLat, m.SWLat, m.HWLat)
	}
	cut.Nodes.ForEach(func(v int) bool {
		if blk.ForbiddenInCut(v) {
			t.Errorf("cut contains forbidden node %d", v)
		}
		return true
	})
	if cut.Merit() <= 0 {
		t.Errorf("cut merit %v must be positive", cut.Merit())
	}
}

func TestBipartitionMAC(t *testing.T) {
	bu := ir.NewBuilder("mac", 1)
	a, b, acc := bu.Input("a"), bu.Input("b"), bu.Input("acc")
	s := bu.Add(bu.Mul(a, b), acc)
	bu.LiveOut(s)
	blk := bu.MustBuild()

	cfg := DefaultConfig()
	cut := mustBipartition(t, blk, cfg)
	assertFeasible(t, blk, cut, cfg)
	// The whole MAC (sw 4, 2 AFU cycles) and the lone mul (sw 3, 1 AFU
	// cycle) both save 2 cycles; either is optimal.
	if math.Abs(cut.Merit()-2) > 1e-9 {
		t.Errorf("MAC merit = %v, want 2", cut.Merit())
	}
	if !cut.Nodes.Has(0) {
		t.Error("the multiply must be covered")
	}
}

func TestBipartitionRespectsIOConstraints(t *testing.T) {
	// A wide block: 4 independent adds, each with its own two inputs and
	// live-out. Under (2,1) a single add saves nothing (1 sw cycle vs 1
	// AFU cycle), so no ISE exists.
	bu := ir.NewBuilder("wide", 1)
	for k := 0; k < 4; k++ {
		x, y := bu.Input("x"), bu.Input("y")
		bu.LiveOut(bu.Add(x, y))
	}
	blk := bu.MustBuild()

	cfg := DefaultConfig()
	cfg.MaxIn, cfg.MaxOut = 2, 1
	if cut := mustBipartition(t, blk, cfg); cut != nil {
		t.Fatalf("cut %v found under (2,1), want none (zero merit)", cut.Nodes)
	}

	// Under (8,4) the best cut packs all four adds as one ISE of
	// independent subgraphs: 4 sw cycles in 1 AFU cycle.
	cfg.MaxIn, cfg.MaxOut = 8, 4
	cut := mustBipartition(t, blk, cfg)
	assertFeasible(t, blk, cut, cfg)
	if cut.Size() != 4 {
		t.Fatalf("cut size = %d, want 4 under (8,4)", cut.Size())
	}
	if math.Abs(cut.Merit()-3) > 1e-9 {
		t.Errorf("independent cut merit = %v, want 3", cut.Merit())
	}
}

func TestBipartitionAvoidsMemoryBarriers(t *testing.T) {
	// add -> load -> add chain: the load can never be in the cut, so the
	// best convex cut is one of the adds (plus nothing else).
	bu := ir.NewBuilder("membar", 1)
	a, b := bu.Input("a"), bu.Input("b")
	s1 := bu.Add(a, b)
	ld := bu.Load(s1)
	s2 := bu.Add(ld, b)
	s3 := bu.Mul(s2, s2)
	bu.LiveOut(s3)
	blk := bu.MustBuild()

	cfg := DefaultConfig()
	cut := mustBipartition(t, blk, cfg)
	assertFeasible(t, blk, cut, cfg)
	if cut.Nodes.Has(1) {
		t.Fatal("cut must not contain the load")
	}
	// Both {s2,s3} (sw 4, 2 cycles) and {s3} (sw 3, 1 cycle) save 2.
	if math.Abs(cut.Merit()-2) > 1e-9 {
		t.Errorf("cut merit = %v, want 2", cut.Merit())
	}
	if !cut.Nodes.Has(3) {
		t.Errorf("cut %v must cover the multiply", cut.Nodes)
	}
}

func TestBipartitionConvexityForced(t *testing.T) {
	// n0 -> load -> n2, and n0 -> n2 directly: {n0,n2} is non-convex
	// because the path through the load leaves the cut. ISEGEN must pick
	// a convex subset.
	bu := ir.NewBuilder("nonconvex", 1)
	a := bu.Input("a")
	n0 := bu.Add(a, a)
	ld := bu.Load(n0)
	n2 := bu.Add(n0, ld)
	n3 := bu.Xor(n2, a)
	bu.LiveOut(n3)
	blk := bu.MustBuild()

	cfg := DefaultConfig()
	cut := mustBipartition(t, blk, cfg)
	assertFeasible(t, blk, cut, cfg)
	if cut.Nodes.Has(0) && cut.Nodes.Has(2) {
		t.Fatal("cut {n0,n2} would be non-convex")
	}
}

// Exhaustive reference: enumerate all feasible cuts of a small block and
// return the best merit.
func bestMeritExhaustive(blk *ir.Block, cfg Config) (float64, *graph.BitSet) {
	n := blk.N()
	if n > 20 {
		panic("too large for exhaustive reference")
	}
	best := 0.0
	var bestCut *graph.BitSet
	for mask := 1; mask < 1<<uint(n); mask++ {
		cut := graph.NewBitSet(n)
		skip := false
		for v := 0; v < n; v++ {
			if mask&(1<<uint(v)) != 0 {
				if blk.ForbiddenInCut(v) || !cfg.Model.HWImplementable(blk.Nodes[v].Op) {
					skip = true
					break
				}
				cut.Set(v)
			}
		}
		if skip {
			continue
		}
		m := MetricsOf(blk, cfg.Model, cut)
		if !m.Convex() || m.NumIn > cfg.MaxIn || m.NumOut > cfg.MaxOut {
			continue
		}
		if merit := m.Merit(); merit > best {
			best = merit
			bestCut = cut
		}
	}
	return best, bestCut
}

// ISEGEN should match the exhaustive optimum on small random blocks — the
// paper's central claim for the small EEMBC benchmarks. It is a heuristic,
// so we allow occasional near-misses: at least 85% of trials must be
// exactly optimal and no trial may fall below 70% of optimal merit (the
// calibration in DESIGN.md measured 97% exact / worst 74.5% over 200
// kernels).
func TestBipartitionNearOptimalOnSmallBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(2025))
	cfg := DefaultConfig()
	trials, exact := 0, 0
	for trial := 0; trial < 40; trial++ {
		blk := randKernelBlock(rng, 4+rng.Intn(9))
		want, wantCut := bestMeritExhaustive(blk, cfg)
		if wantCut == nil {
			continue
		}
		trials++
		cut := mustBipartition(t, blk, cfg)
		got := 0.0
		if cut != nil {
			assertFeasible(t, blk, cut, cfg)
			got = cut.Merit()
		}
		if got >= want-1e-9 {
			exact++
		} else if got < 0.7*want {
			t.Errorf("trial %d: merit %v < 70%% of optimal %v (cut %v, optimal %v)",
				trial, got, want, cut.Nodes, wantCut)
		}
	}
	if trials == 0 {
		t.Fatal("no usable trials")
	}
	if float64(exact) < 0.85*float64(trials) {
		t.Errorf("optimal in only %d/%d trials, want >= 85%%", exact, trials)
	}
}

func TestBipartitionAllFrozen(t *testing.T) {
	bu := ir.NewBuilder("allmem", 1)
	a := bu.Input("a")
	v := bu.Load(a)
	bu.LiveOut(v)
	blk := bu.MustBuild()
	cut := mustBipartition(t, blk, DefaultConfig())
	if cut != nil {
		t.Fatalf("expected nil cut, got %v", cut.Nodes)
	}
}

func TestConfigValidation(t *testing.T) {
	blk := buildDiamondBlock(t)
	bad := []Config{
		{MaxIn: 0, MaxOut: 1, NISE: 1, MaxPasses: 5, Model: latency.Default()},
		{MaxIn: 2, MaxOut: 0, NISE: 1, MaxPasses: 5, Model: latency.Default()},
		{MaxIn: 2, MaxOut: 1, NISE: 0, MaxPasses: 5, Model: latency.Default()},
		{MaxIn: 2, MaxOut: 1, NISE: 1, MaxPasses: 0, Model: latency.Default()},
		{MaxIn: 2, MaxOut: 1, NISE: 1, MaxPasses: 5, Model: nil},
	}
	for i, cfg := range bad {
		if _, err := NewEngine(blk, cfg, nil); err == nil {
			t.Errorf("config %d should be rejected", i)
		}
	}
}

// Property: Bipartition output is deterministic.
func TestBipartitionDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 10; trial++ {
		blk := randKernelBlock(rng, 10+rng.Intn(15))
		cfg := DefaultConfig()
		c1 := mustBipartition(t, blk, cfg)
		c2 := mustBipartition(t, blk, cfg)
		switch {
		case c1 == nil && c2 == nil:
		case c1 == nil || c2 == nil:
			t.Fatal("nondeterministic nil-ness")
		default:
			if !c1.Nodes.Equal(c2.Nodes) {
				t.Fatalf("nondeterministic cuts: %v vs %v", c1.Nodes, c2.Nodes)
			}
		}
	}
}

func BenchmarkBipartitionMedium(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	blk := randKernelBlock(rng, 100)
	cfg := DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := NewEngine(blk, cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		eng.Bipartition()
	}
}

// TestTrajectoryFullSweepCounter: K-L calls SetCut once at the start and
// once per pass, and only SetCut relabels with a full sweep, so one
// trajectory reports at most MaxPasses+1 sweeps — and at least one from a
// non-empty seed, which SetCut must apply to the fresh all-software State.
func TestTrajectoryFullSweepCounter(t *testing.T) {
	cfg := DefaultConfig()
	checked := 0
	for _, spec := range kernels.All() {
		for _, blk := range spec.App.Blocks {
			first, err := NewEngine(blk, cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			for si, seed := range first.Seeds() {
				// A fresh engine per seed: its State starts all-software.
				eng, err := NewEngine(blk, cfg, nil)
				if err != nil {
					t.Fatal(err)
				}
				rec := obs.NewRecorder(0)
				if _, err := eng.TrajectoryContext(obs.WithRecorder(context.Background(), rec), seed); err != nil {
					t.Fatal(err)
				}
				sweeps := rec.Counters().Get(obs.KLCPFullSweeps)
				if sweeps > int64(cfg.MaxPasses+1) {
					t.Fatalf("%s/%s seed %d: %d full sweeps, want at most MaxPasses+1 = %d",
						spec.Name, blk.Name, si, sweeps, cfg.MaxPasses+1)
				}
				if !seed.Empty() {
					checked++
					if sweeps < 1 {
						t.Fatalf("%s/%s seed %d: %d full sweeps from a non-empty seed, want at least 1",
							spec.Name, blk.Name, si, sweeps)
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no non-empty seed was checked")
	}
}
