package difftest

import (
	"context"
	"testing"
	"time"

	"repro/internal/dfggen"
	"repro/internal/search"
)

// racingLimits builds the racing engine's limits for one generated block.
func racingLimits(deadline time.Duration) *search.Limits {
	return &search.Limits{
		MaxIn: 4, MaxOut: 2, NISE: 2,
		Budget: search.DefaultBudget, Workers: 1, SubtreeWorkers: 1,
		Deadline: deadline,
	}
}

// TestRacingAnytimeMonotoneOnGeneratedBlocks checks the racing stream
// contract on generated blocks: anytime-stage merits are strictly
// increasing, every anytime merit is ≤ the optimal-stage merit, the
// optimal event closes the stream, and an undeadlined run reports an
// optimality proof.
func TestRacingAnytimeMonotoneOnGeneratedBlocks(t *testing.T) {
	seeds := int64(60)
	if testing.Short() {
		seeds = 15
	}
	obj := search.Merit(model)
	for seed := int64(1); seed <= seeds; seed++ {
		blk := dfggen.Block(dfggen.Seeded(200+seed), dfggen.DefaultParams())
		var events []search.RaceEvent
		eng := &search.Racing{OnEvent: func(ev search.RaceEvent) { events = append(events, ev) }}
		cuts, stats, err := eng.RunContext(context.Background(), blk, obj, racingLimits(0))
		if err != nil {
			if search.IsResourceRefusal(err) {
				continue
			}
			t.Fatalf("seed %d: racing failed: %v", seed, err)
		}
		if !stats.Optimal {
			t.Errorf("seed %d: undeadlined racing run reports no optimality proof", seed)
		}
		if len(events) == 0 {
			t.Fatalf("seed %d: racing published no events", seed)
		}
		last := events[len(events)-1]
		if last.Stage != "optimal" {
			t.Errorf("seed %d: stream did not end with the optimal event (got %q)", seed, last.Stage)
		}
		prev := 0.0
		for i, ev := range events {
			if i < len(events)-1 && ev.Stage != "anytime" {
				t.Errorf("seed %d: event %d has stage %q before the final event", seed, i, ev.Stage)
			}
			if ev.Stage == "anytime" {
				if ev.Merit <= prev && i > 0 {
					t.Errorf("seed %d: anytime merit not strictly increasing: %g after %g", seed, ev.Merit, prev)
				}
				if ev.Merit > last.Merit+meritEps {
					t.Errorf("seed %d: anytime merit %g exceeds optimal merit %g", seed, ev.Merit, last.Merit)
				}
				// A streamed anytime answer is actionable: it must pass
				// the same validity suite as a final answer.
				for _, v := range CheckCuts(blk, "racing/anytime", ev.Cuts, 4, 2, 2) {
					t.Errorf("seed %d: %s", seed, v)
				}
			}
			prev = ev.Merit
		}
		for _, v := range CheckCuts(blk, "racing/final", cuts, 4, 2, 2) {
			t.Errorf("seed %d: %s", seed, v)
		}
	}
}

// TestRacingDeadlineNeverYieldsInvalidCuts forces deadline expiry (an
// immediate 1ns deadline and a mid-race ~200µs one) on generated blocks
// and checks the anytime answer: nil error, structurally valid cuts, and
// a merit never exceeding the exact optimum computed without a deadline.
func TestRacingDeadlineNeverYieldsInvalidCuts(t *testing.T) {
	seeds := int64(40)
	if testing.Short() {
		seeds = 10
	}
	obj := search.Merit(model)
	for seed := int64(1); seed <= seeds; seed++ {
		blk := dfggen.Block(dfggen.Seeded(300+seed), dfggen.DefaultParams())

		exactEng, err := search.New("exact", nil)
		if err != nil {
			t.Fatal(err)
		}
		exactCuts, _, err := exactEng.RunContext(context.Background(), blk, obj, racingLimits(0))
		if err != nil {
			if search.IsResourceRefusal(err) {
				continue
			}
			t.Fatalf("seed %d: exact reference failed: %v", seed, err)
		}
		optimum := refTotalMerit(blk, exactCuts)

		for _, deadline := range []time.Duration{time.Nanosecond, 200 * time.Microsecond} {
			eng := &search.Racing{}
			cuts, stats, err := eng.RunContext(context.Background(), blk, obj, racingLimits(deadline))
			if err != nil {
				t.Fatalf("seed %d deadline %v: racing returned error %v (deadline expiry must not error)",
					seed, deadline, err)
			}
			for _, v := range CheckCuts(blk, "racing/deadlined", cuts, 4, 2, 2) {
				t.Errorf("seed %d deadline %v: %s", seed, deadline, v)
			}
			if m := refTotalMerit(blk, cuts); m > optimum+meritEps {
				t.Errorf("seed %d deadline %v: anytime merit %g exceeds exact optimum %g",
					seed, deadline, m, optimum)
			}
			if stats.Optimal {
				// The race may legitimately finish before a generous
				// deadline; a claimed proof must then match exact.
				if d := diffCuts(exactCuts, cuts); d != "" {
					t.Errorf("seed %d deadline %v: claims optimality but differs from exact: %s",
						seed, deadline, d)
				}
			}
		}
	}
}
