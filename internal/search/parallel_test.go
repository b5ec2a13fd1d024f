package search_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/kernels"
	"repro/internal/search"
)

// pipelineFingerprint runs the full ISEGEN-with-reuse pipeline (the
// facade's Generate flow: unified driver, reuse-aware objective, claiming,
// evaluation) with the given worker count and serializes Selections and
// Report into one string.
func pipelineFingerprint(t *testing.T, app *ir.Application, workers int) string {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Workers = workers
	var sels []eval.Selection
	claimer := eval.NewClaimer(app)
	r := &search.Runner{Workers: workers}
	_, _, err := r.GenerateContext(context.Background(), app, cfg, search.ReuseAware(app, cfg.Model, claimer),
		func(bi int, cut *core.Cut, excluded []*graph.BitSet) {
			sel := claimer.Claim(bi, cut, excluded)
			if len(sel.Instances) > 0 {
				sels = append(sels, sel)
			}
		})
	if err != nil {
		t.Fatalf("Generate(workers=%d): %v", workers, err)
	}
	rep, err := eval.Evaluate(app, cfg.Model, sels)
	if err != nil {
		t.Fatalf("Evaluate(workers=%d): %v", workers, err)
	}

	var sb strings.Builder
	for i, sel := range sels {
		fmt.Fprintf(&sb, "sel %d: cut=%v io=(%d,%d) sw=%d hw=%v\n",
			i, sel.Cut.Nodes, sel.Cut.NumIn, sel.Cut.NumOut, sel.Cut.SWLat, sel.Cut.HWLat)
		for _, inst := range sel.Instances {
			fmt.Fprintf(&sb, "  inst blk=%d nodes=%v\n", inst.BlockIdx, inst.Nodes)
		}
	}
	fmt.Fprintf(&sb, "report: %+v\n", *rep)
	return sb.String()
}

// TestRunnerParallelDeterminism is the contract of the worker pool: with N
// workers the full pipeline produces byte-identical Selections and Report
// to the sequential path, on every internal/kernels benchmark. Run with
// -race this also exercises the trajectory fan-out for data races.
func TestRunnerParallelDeterminism(t *testing.T) {
	specs := kernels.All()
	for _, spec := range specs {
		seq := pipelineFingerprint(t, spec.App, 1)
		par := pipelineFingerprint(t, spec.App, 8)
		if seq != par {
			t.Errorf("%s: parallel output differs from sequential:\n--- sequential ---\n%s--- parallel ---\n%s",
				spec.Name, seq, par)
		}
	}
	if testing.Short() {
		t.Skip("AES determinism check skipped in -short mode")
	}
	seq := pipelineFingerprint(t, kernels.AES(), 1)
	par := pipelineFingerprint(t, kernels.AES(), 8)
	if seq != par {
		t.Error("aes: parallel output differs from sequential")
	}
}

// TestCandidatesParallelMatchesSequential pins the lower level: the
// engine's candidate pool is identical whether trajectories run on one
// worker or many, for every restart count.
func TestCandidatesParallelMatchesSequential(t *testing.T) {
	spec := kernels.All()[4] // adpcm_coder-scale block, several components
	blk := spec.App.Blocks[0]
	for _, restarts := range []int{1, 2, 4, 8} {
		cfg := core.DefaultConfig()
		cfg.Restarts = restarts
		engSeq, err := core.NewEngine(blk, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		seq := engSeq.Candidates()

		engPar, err := core.NewEngine(blk, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		seeds := engPar.Seeds()
		perSeed := make([][]core.Candidate, len(seeds))
		done := make(chan int, len(seeds))
		for i := range seeds {
			go func(i int) {
				perSeed[i], _ = engPar.TrajectoryContext(context.Background(), seeds[i])
				done <- i
			}(i)
		}
		for range seeds {
			<-done
		}
		var snaps []core.Candidate
		for _, s := range perSeed {
			snaps = append(snaps, s...)
		}
		par := engPar.Finalize(snaps)

		if len(seq) != len(par) {
			t.Fatalf("restarts=%d: %d sequential vs %d parallel candidates", restarts, len(seq), len(par))
		}
		for i := range seq {
			if !seq[i].Nodes.Equal(par[i].Nodes) || seq[i].Merit() != par[i].Merit() {
				t.Fatalf("restarts=%d: candidate %d differs: %v vs %v", restarts, i, seq[i].Nodes, par[i].Nodes)
			}
		}
	}
}

// TestRunBlocksDeterministicOrder: the block fan-out merges results in
// input order regardless of completion order.
func TestRunBlocksDeterministicOrder(t *testing.T) {
	specs := kernels.All()
	blocks := make([]*ir.Block, len(specs))
	for i, spec := range specs {
		blocks[i] = spec.App.Blocks[0]
	}
	model := core.DefaultConfig().Model
	lim := &search.Limits{MaxIn: 4, MaxOut: 2, NISE: 2, Workers: 1}
	obj := search.Merit(model)
	eng := &search.KL{Cache: search.NewCostCache()}

	// runBlocks fans the engine out over the blocks, each result written
	// to its input slot, and fails on the first per-block error.
	runBlocks := func(r *search.Runner) [][]*core.Cut {
		cuts := make([][]*core.Cut, len(blocks))
		errs := make([]error, len(blocks))
		if err := r.ForEachContext(context.Background(), len(blocks), func(i int) {
			cuts[i], _, errs[i] = eng.RunContext(context.Background(), blocks[i], obj, lim)
		}); err != nil {
			t.Fatal(err)
		}
		for i, err := range errs {
			if err != nil {
				t.Fatalf("block %d: %v", i, err)
			}
		}
		return cuts
	}
	seqCuts := runBlocks(&search.Runner{Workers: 1})
	parCuts := runBlocks(&search.Runner{Workers: 8})
	for i := range blocks {
		if len(seqCuts[i]) != len(parCuts[i]) {
			t.Fatalf("block %d: cut count %d vs %d", i, len(seqCuts[i]), len(parCuts[i]))
		}
		for j := range seqCuts[i] {
			if !seqCuts[i][j].Nodes.Equal(parCuts[i][j].Nodes) {
				t.Fatalf("block %d cut %d differs", i, j)
			}
		}
	}
}
