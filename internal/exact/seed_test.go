package exact

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/obs"
)

// countExplored returns a context that records counters and a function
// reading the exact_explored count recorded through it so far.
func countExplored() (context.Context, func() int64) {
	rec := obs.NewRecorder(0)
	return obs.WithRecorder(context.Background(), rec), func() int64 { return rec.Counters().Get(obs.ExactExplored) }
}

// summedMerit is the joint objective value of a multi-cut answer.
func summedMerit(cuts []*core.Cut) float64 {
	t := 0.0
	for _, c := range cuts {
		t += c.Merit()
	}
	return t
}

// TestSeedBoundDeterminism pins the seeding contract: pre-loading the
// best-bound with any merit <= the optimum (including the optimum itself,
// the tightest sound seed) leaves SingleCut and MultiCut bit-identical to
// the unseeded run, sequentially and across subtree worker counts, while
// never exploring more nodes on the sequential schedule.
func TestSeedBoundDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	for trial := 0; trial < 12; trial++ {
		blk := randKernelBlock(rng, 8+rng.Intn(12))
		opt := defaultOpts()
		baseCtx, baseExplored := countExplored()
		refSingle, err := SingleCutContext(baseCtx, blk, opt, nil)
		if err != nil {
			t.Fatal(err)
		}
		refMulti, err := MultiCutContext(baseCtx, blk, opt, 2)
		if err != nil {
			t.Fatal(err)
		}
		optimum := summedMerit(refMulti)
		seeds := []float64{0, optimum / 2, optimum}
		if refSingle != nil {
			seeds = append(seeds, refSingle.Merit())
		}
		for _, seed := range seeds {
			for _, w := range []int{0, 3} {
				sopt := defaultOpts()
				sopt.SeedBound, sopt.Workers = seed, w
				ctx, seededExplored := countExplored()
				if seed <= meritOrZero(refSingle) {
					gotSingle, err := SingleCutContext(ctx, blk, sopt, nil)
					if err != nil {
						t.Fatal(err)
					}
					sameCut(t, "seeded single", refSingle, gotSingle)
				}
				if seed <= optimum {
					gotMulti, err := MultiCutContext(ctx, blk, sopt, 2)
					if err != nil {
						t.Fatal(err)
					}
					sameCuts(t, "seeded multi", refMulti, gotMulti)
				}
				if w == 0 && seededExplored() > baseExplored() {
					t.Fatalf("seed %v explored %d nodes sequentially, unseeded only %d — seeding must never weaken pruning",
						seed, seededExplored(), baseExplored())
				}
			}
		}
	}
}

func meritOrZero(c *core.Cut) float64 {
	if c == nil {
		return 0
	}
	return c.Merit()
}

// TestSeedBoundKernelSuite runs the seeded-vs-unseeded identity on the
// real benchmark blocks within the joint search's size limit, seeding with
// the true optimum, and checks the seed actually prunes: never more
// explored nodes per kernel, strictly fewer over the suite (the tiniest
// blocks have nothing left to prune, so the strict claim is aggregate).
func TestSeedBoundKernelSuite(t *testing.T) {
	var totalBase, totalSeeded int64
	for _, spec := range kernels.All() {
		if spec.CriticalSize > 25 {
			continue
		}
		blk := spec.App.Blocks[0]
		opt := defaultOpts()
		opt.Budget = 2_000_000_000
		baseCtx, base := countExplored()
		ref, err := MultiCutContext(baseCtx, blk, opt, 4)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		sopt := opt
		sopt.SeedBound = summedMerit(ref)
		seededCtx, seeded := countExplored()
		got, err := MultiCutContext(seededCtx, blk, sopt, 4)
		if err != nil {
			t.Fatalf("%s seeded: %v", spec.Name, err)
		}
		sameCuts(t, spec.Name, ref, got)
		baseExplored, seededExplored := base(), seeded()
		if seededExplored > baseExplored {
			t.Fatalf("%s: optimum-seeded run explored %d nodes, unseeded %d — seeding must never weaken pruning",
				spec.Name, seededExplored, baseExplored)
		}
		totalBase += baseExplored
		totalSeeded += seededExplored
	}
	if totalSeeded >= totalBase {
		t.Fatalf("optimum seeding explored %d nodes over the suite, unseeded %d — expected a strict reduction",
			totalSeeded, totalBase)
	}
}

// TestBoundRaiseMidRun pins the external-publication path: raising the
// shared Bound from another goroutine while MultiCut runs (the racing
// engine's K-L publication) must not change the answer, only prune. Run
// under -race: the raises go through the same CAS word the subtree workers
// read and write.
func TestBoundRaiseMidRun(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 6; trial++ {
		blk := randKernelBlock(rng, 12+rng.Intn(8))
		opt := defaultOpts()
		ref, err := MultiCutContext(context.Background(), blk, opt, 2)
		if err != nil {
			t.Fatal(err)
		}
		optimum := summedMerit(ref)
		for _, w := range []int{0, 4} {
			bopt := defaultOpts()
			bopt.Workers = w
			bopt.Bound = NewBound()
			var wg sync.WaitGroup
			done := make(chan struct{})
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Hammer the bound toward the optimum while the search
				// runs; every published value is a sound seed.
				for i := 1; i <= 8; i++ {
					select {
					case <-done:
						return
					default:
					}
					bopt.Bound.Raise(optimum * float64(i) / 8)
				}
			}()
			got, err := MultiCutContext(context.Background(), blk, bopt, 2)
			close(done)
			wg.Wait()
			if err != nil {
				t.Fatal(err)
			}
			sameCuts(t, "mid-run raise", ref, got)
		}
	}
}

// TestBoundMonotone pins the Bound primitive itself: Raise succeeds
// exactly on strict improvements and Best always reports the maximum.
func TestBoundMonotone(t *testing.T) {
	b := NewBound()
	if b.Best() != 0 {
		t.Fatalf("fresh bound = %v, want 0", b.Best())
	}
	if !b.Raise(3) || b.Best() != 3 {
		t.Fatalf("Raise(3) rejected or Best = %v", b.Best())
	}
	if b.Raise(3) || b.Raise(2) {
		t.Fatal("non-improving Raise succeeded")
	}
	if !b.Raise(7.5) || b.Best() != 7.5 {
		t.Fatalf("Raise(7.5) rejected or Best = %v", b.Best())
	}
}

// TestIterativeSeedRejected: the iterative baseline must refuse seeding —
// its per-round single-cut optima shrink as nodes freeze, so no external
// joint merit is a sound per-round bound.
func TestIterativeSeedRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	blk := randKernelBlock(rng, 10)
	opt := defaultOpts()
	opt.SeedBound = 1
	if _, err := IterativeContext(context.Background(), blk, opt, 2); err == nil || !strings.Contains(err.Error(), "bound-seeded") {
		t.Fatalf("SeedBound on Iterative: err = %v, want bound-seeded rejection", err)
	}
	opt = defaultOpts()
	opt.Bound = NewBound()
	if _, err := IterativeContext(context.Background(), blk, opt, 2); err == nil || !strings.Contains(err.Error(), "bound-seeded") {
		t.Fatalf("Bound on Iterative: err = %v, want bound-seeded rejection", err)
	}
}

// TestSeedBoundValidation: seeds that are not the merit of any feasible
// assignment by construction (negative, NaN, infinite) are rejected up
// front on both entry points.
func TestSeedBoundValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	blk := randKernelBlock(rng, 8)
	for _, bad := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		opt := defaultOpts()
		opt.SeedBound = bad
		if _, err := SingleCutContext(context.Background(), blk, opt, nil); err == nil {
			t.Fatalf("SingleCut accepted SeedBound %v", bad)
		}
		if _, err := MultiCutContext(context.Background(), blk, opt, 2); err == nil {
			t.Fatalf("MultiCut accepted SeedBound %v", bad)
		}
	}
}
