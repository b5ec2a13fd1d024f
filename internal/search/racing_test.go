package search

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/kernels"
	"repro/internal/latency"
	"repro/internal/obs"
)

// runSeedsRecorded runs the racer with a counters-only recorder attached
// and also returns its racing_seed_publications count: how many heuristic
// answers tightened the exact search's bound.
func runSeedsRecorded(racer *Racing, blk *ir.Block, obj *Objective, lim *Limits) ([]*core.Cut, Stats, int64, error) {
	rec := obs.NewRecorder(0)
	cuts, stats, err := racer.RunContext(obs.WithRecorder(context.Background(), rec), blk, obj, lim)
	return cuts, stats, rec.Counters().Get(obs.RacingSeeds), err
}

// racingFingerprint serializes a result for bit-identity checks.
func racingFingerprint(cuts []*core.Cut) string {
	var sb strings.Builder
	for i, c := range cuts {
		fmt.Fprintf(&sb, "cut %d: %v merit=%v io=(%d,%d) sw=%d hw=%v\n",
			i, c.Nodes, c.Merit(), c.NumIn, c.NumOut, c.SWLat, c.HWLat)
	}
	return sb.String()
}

// racingRandBlock mirrors the random-block generator of the core and exact
// test suites.
func racingRandBlock(rng *rand.Rand, n int) *ir.Block {
	bu := ir.NewBuilder("rand", 1)
	ins := bu.Inputs(2 + rng.Intn(3))
	vals := append([]ir.Value{}, ins...)
	for i := 0; i < n; i++ {
		a := vals[rng.Intn(len(vals))]
		b := vals[rng.Intn(len(vals))]
		var v ir.Value
		switch rng.Intn(10) {
		case 0:
			v = bu.Mul(a, b)
		case 1:
			v = bu.Xor(a, b)
		case 2:
			v = bu.Shl(a, b)
		case 3:
			v = bu.Sub(a, b)
		case 4:
			v = bu.Load(a)
		default:
			v = bu.Add(a, b)
		}
		vals = append(vals, v)
	}
	bu.LiveOut(vals[len(vals)-1])
	return bu.MustBuild()
}

// checkRaceStream asserts the published event stream is well-formed:
// strictly merit-monotone, every anytime event before the single optimal
// event (if any), which must be last.
func checkRaceStream(t *testing.T, label string, events []RaceEvent) {
	t.Helper()
	last := 0.0
	for i, ev := range events {
		switch ev.Stage {
		case "optimal":
			if i != len(events)-1 {
				t.Fatalf("%s: optimal event at %d of %d, want last", label, i, len(events))
			}
			if ev.Merit < last {
				t.Fatalf("%s: optimal merit %v below anytime merit %v", label, ev.Merit, last)
			}
		case "anytime":
			if ev.Merit <= last && i > 0 {
				t.Fatalf("%s: anytime event %d merit %v does not improve on %v", label, i, ev.Merit, last)
			}
			if len(ev.Cuts) == 0 {
				t.Fatalf("%s: anytime event %d carries no cuts", label, i)
			}
		default:
			t.Fatalf("%s: unknown stage %q", label, ev.Stage)
		}
		last = ev.Merit
	}
}

// TestRacingEquivalence pins the tentpole contract: the undeadlined racer
// returns cuts bit-identical to the exact engine alone, on every in-limit
// kernel block, across K-L worker counts and exact subtree worker counts,
// with Optimal set and a well-formed event stream closing on the answer.
// Run under -race: the K-L goroutine publishes into the bound the exact
// workers prune against.
func TestRacingEquivalence(t *testing.T) {
	model := latency.Default()
	obj := Merit(model)
	for _, spec := range kernels.All() {
		if spec.CriticalSize > DefaultNodeLimit("racing") {
			continue
		}
		blk := spec.App.Blocks[0]
		exactEng := &ExactJoint{}
		baseLim := Limits{
			MaxIn: 4, MaxOut: 2, NISE: 4,
			NodeLimit: DefaultNodeLimit("exact"), Budget: DefaultBudget,
		}
		refCuts, refStats, err := exactEng.Run(blk, obj, &baseLim)
		if err != nil {
			t.Fatalf("%s exact: %v", spec.Name, err)
		}
		if !refStats.Optimal {
			t.Fatalf("%s exact: completed run not marked Optimal", spec.Name)
		}
		ref := racingFingerprint(refCuts)
		for _, klW := range []int{1, 0} {
			for _, subW := range []int{0, 3} {
				var events []RaceEvent
				racer := &Racing{Cache: NewCostCache(), OnEvent: func(ev RaceEvent) { events = append(events, ev) }}
				lim := baseLim
				lim.Workers, lim.SubtreeWorkers = klW, subW
				cuts, stats, err := racer.Run(blk, obj, &lim)
				label := fmt.Sprintf("%s klW=%d subW=%d", spec.Name, klW, subW)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if got := racingFingerprint(cuts); got != ref {
					t.Fatalf("%s diverged from exact\n--- got\n%s--- want\n%s", label, got, ref)
				}
				if !stats.Optimal {
					t.Fatalf("%s: undeadlined racing run not marked Optimal", label)
				}
				if stats.Explored <= 0 {
					t.Fatalf("%s: Explored = %d, want > 0", label, stats.Explored)
				}
				checkRaceStream(t, label, events)
				if len(events) == 0 || events[len(events)-1].Stage != "optimal" {
					t.Fatalf("%s: stream did not close with an optimal event: %v", label, events)
				}
				if fin := events[len(events)-1]; racingFingerprint(fin.Cuts) != ref {
					t.Fatalf("%s: optimal event cuts differ from the returned answer", label)
				}
			}
		}
	}
}

// TestRacingSeedObserved: on random blocks where K-L wins the race (the
// exact side is held to the sequential path on a non-trivial block), the
// recorder counts the seed publication and the seeded run explores no more
// nodes than an unseeded exact run.
func TestRacingSeedObserved(t *testing.T) {
	model := latency.Default()
	obj := Merit(model)
	rng := rand.New(rand.NewSource(20260808))
	seeded := false
	for trial := 0; trial < 8 && !seeded; trial++ {
		blk := racingRandBlock(rng, 16+rng.Intn(6))
		lim := Limits{MaxIn: 4, MaxOut: 2, NISE: 4, Budget: DefaultBudget}
		exactEng := &ExactJoint{}
		refCuts, refStats, err := exactEng.Run(blk, obj, &lim)
		if err != nil {
			t.Fatal(err)
		}
		racer := &Racing{Cache: NewCostCache()}
		cuts, stats, seeds, err := runSeedsRecorded(racer, blk, obj, &lim)
		if err != nil {
			t.Fatal(err)
		}
		if racingFingerprint(cuts) != racingFingerprint(refCuts) {
			t.Fatalf("trial %d: racing diverged from exact", trial)
		}
		if seeds > 0 {
			seeded = true
			if stats.Explored > refStats.Explored {
				t.Fatalf("trial %d: seeded race explored %d nodes, unseeded exact %d",
					trial, stats.Explored, refStats.Explored)
			}
		}
	}
	if !seeded {
		t.Fatal("K-L never published a seed across 8 random blocks — the race is not racing")
	}
}

// TestRacingDeadline pins the anytime semantics: on a block the exact
// search cannot finish (no node limit, no budget), a deadlined racer
// returns K-L's answer as best-so-far — nil error, Optimal false, the
// stream holding only anytime events matching the returned cuts — and
// leaks no goroutines.
func TestRacingDeadline(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	blk := racingRandBlock(rng, 60) // intractable for the joint search
	model := latency.Default()
	obj := Merit(model)
	base := runtime.NumGoroutine()
	var events []RaceEvent
	racer := &Racing{Cache: NewCostCache(), OnEvent: func(ev RaceEvent) { events = append(events, ev) }}
	lim := &Limits{MaxIn: 4, MaxOut: 2, NISE: 4, Deadline: 2 * time.Second}
	start := time.Now()
	cuts, stats, seeds, err := runSeedsRecorded(racer, blk, obj, lim)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("deadlined race: %v", err)
	}
	if elapsed > 30*time.Second {
		t.Fatalf("deadline of %v enforced only after %v", lim.Deadline, elapsed)
	}
	if stats.Optimal {
		t.Fatal("deadlined run marked Optimal")
	}
	// A 60-node block is milliseconds for K-L, so the 2s deadline always
	// leaves a complete heuristic answer.
	if len(cuts) == 0 {
		t.Fatal("deadlined race returned no cuts despite a completed K-L run")
	}
	checkRaceStream(t, "deadline", events)
	for _, ev := range events {
		if ev.Stage == "optimal" {
			t.Fatal("deadlined run published an optimal event")
		}
	}
	if len(events) == 0 {
		t.Fatal("deadlined run published no anytime answer")
	}
	fin := events[len(events)-1]
	if racingFingerprint(fin.Cuts) != racingFingerprint(cuts) {
		t.Fatal("last anytime event differs from the returned best-so-far answer")
	}
	if seeds == 0 {
		t.Fatal("completed K-L run did not register as a seed: racing_seed_publications = 0")
	}
	waitGoroutines(t, base)
}

// TestRacingExactWinsGated makes "exact finishes first" deterministic: the
// K-L racer is gated on the optimal event, so the stream must hold exactly
// that one event, no seed is recorded, and the result still matches the
// exact engine.
func TestRacingExactWinsGated(t *testing.T) {
	model := latency.Default()
	obj := Merit(model)
	spec := kernels.All()[0]
	var blk *ir.Block
	for _, s := range kernels.All() {
		if s.CriticalSize <= 25 {
			spec, blk = s, s.App.Blocks[0]
			break
		}
	}
	if blk == nil {
		t.Skip("no in-limit kernel block")
	}
	lim := &Limits{MaxIn: 4, MaxOut: 2, NISE: 4, Budget: DefaultBudget}
	exactEng := &ExactJoint{}
	refCuts, _, err := exactEng.Run(blk, obj, lim)
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	var events []RaceEvent
	racer := &Racing{Cache: NewCostCache()}
	racer.OnEvent = func(ev RaceEvent) {
		events = append(events, ev)
		if ev.Stage == "optimal" {
			close(gate) // release the heuristic racers only after the proof landed
		}
	}
	racer.gate = func() { <-gate }
	cuts, stats, seeds, err := runSeedsRecorded(racer, blk, obj, lim)
	if err != nil {
		t.Fatalf("%s: %v", spec.Name, err)
	}
	if racingFingerprint(cuts) != racingFingerprint(refCuts) {
		t.Fatalf("%s: gated race diverged from exact", spec.Name)
	}
	if !stats.Optimal {
		t.Fatal("exact-won race not marked Optimal")
	}
	if seeds != 0 {
		t.Fatalf("K-L never ran, yet racing_seed_publications = %d", seeds)
	}
	if len(events) != 1 || events[0].Stage != "optimal" {
		t.Fatalf("events = %+v, want exactly one optimal event", events)
	}
}

// TestRacingParentCancel: cancelling the caller's context mid-race returns
// ctx.Err() (not a best-so-far answer), even with a pending deadline, and
// joins the K-L goroutine.
func TestRacingParentCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	blk := racingRandBlock(rng, 60)
	model := latency.Default()
	base := runtime.NumGoroutine()
	racer := &Racing{Cache: NewCostCache()}
	lim := &Limits{MaxIn: 4, MaxOut: 2, NISE: 4, Deadline: time.Hour}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	cuts, stats, err := racer.RunContext(ctx, blk, Merit(model), lim)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if cuts != nil {
		t.Fatalf("cancelled race returned cuts: %v", cuts)
	}
	if stats.Optimal {
		t.Fatal("cancelled race marked Optimal")
	}
	waitGoroutines(t, base)
	cancel()
}

// TestRacingRejectsOversized: the racer refuses blocks beyond the node
// limit up front, exactly like the exact engine it fronts.
func TestRacingRejectsOversized(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	blk := racingRandBlock(rng, 40)
	racer := &Racing{}
	lim := &Limits{MaxIn: 4, MaxOut: 2, NISE: 4, NodeLimit: 25}
	if _, _, err := racer.Run(blk, Merit(latency.Default()), lim); err == nil {
		t.Fatal("oversized block accepted")
	}
}

// TestRacingRejectsNonMerit: like the exact engines, the racer optimizes
// merit and rejects custom-scored objectives instead of ignoring them.
func TestRacingRejectsNonMerit(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	blk := racingRandBlock(rng, 10)
	model := latency.Default()
	racer := &Racing{}
	lim := &Limits{MaxIn: 4, MaxOut: 2, NISE: 2}
	if _, _, err := racer.Run(blk, AreaWeighted(model, DefaultGatePenalty), lim); err == nil {
		t.Fatal("area objective accepted by the racing engine")
	}
}
