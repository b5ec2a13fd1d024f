package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/kernels"
)

// splitRaceStream separates a racing NDJSON stream into its timing-
// dependent frontier records and the deterministic rest (block records and
// summary), preserving order within each.
func splitRaceStream(t *testing.T, stream []byte) (frontiers []RaceFrontierRecord, rest [][]byte) {
	t.Helper()
	for _, line := range bytes.Split(bytes.TrimSpace(stream), []byte("\n")) {
		var probe struct {
			Type  string `json:"type"`
			Stage string `json:"stage"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatalf("unparsable record %s: %v", line, err)
		}
		if probe.Type == "frontier" && probe.Stage != "" {
			var fr RaceFrontierRecord
			if err := json.Unmarshal(line, &fr); err != nil {
				t.Fatal(err)
			}
			frontiers = append(frontiers, fr)
			continue
		}
		rest = append(rest, line)
	}
	return frontiers, rest
}

// TestServiceRacingStream pins the racing wire contract end to end: the
// served ?algo=racing stream minus its frontier records is bit-identical
// to algo=exact's block records (the summary differing only in the algo
// name), and the frontier records themselves are well-formed — per-block
// merit-monotone, each raced block closing with an "optimal" record whose
// merit matches the block's final selections.
func TestServiceRacingStream(t *testing.T) {
	dfg := kernelDFG(t, kernels.Fbital00())
	srv := NewServer(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	exactParams := DefaultParams()
	exactParams.Algo = "exact"
	wantExact := offlineNDJSON(t, dfg, exactParams)

	status, got := postSelect(t, ts, dfg, "?algo=racing")
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, got)
	}
	frontiers, rest := splitRaceStream(t, got)

	// Deterministic part: block records identical to exact's, summary
	// identical up to the algo name.
	wantLines := bytes.Split(bytes.TrimSpace(wantExact), []byte("\n"))
	if len(rest) != len(wantLines) {
		t.Fatalf("%d non-frontier records, exact stream has %d", len(rest), len(wantLines))
	}
	for i := 0; i < len(rest)-1; i++ {
		if !bytes.Equal(rest[i], wantLines[i]) {
			t.Fatalf("block record %d diverged from exact\nracing: %s\nexact:  %s", i, rest[i], wantLines[i])
		}
	}
	var raceSum, exactSum Summary
	if err := json.Unmarshal(rest[len(rest)-1], &raceSum); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(wantLines[len(wantLines)-1], &exactSum); err != nil {
		t.Fatal(err)
	}
	if raceSum.Algo != "racing" || exactSum.Algo != "exact" {
		t.Fatalf("summary algos: %q racing stream, %q exact stream", raceSum.Algo, exactSum.Algo)
	}
	raceSum.Algo = exactSum.Algo
	if raceSum != exactSum {
		t.Fatalf("racing summary %+v != exact summary %+v (modulo algo)", raceSum, exactSum)
	}

	// Timing-dependent part: well-formed, merit-monotone per block, each
	// raced block closed by exactly one optimal record.
	lastMerit := map[int]float64{}
	optimal := map[int]*RaceFrontierRecord{}
	for i := range frontiers {
		fr := &frontiers[i]
		if optimal[fr.Block] != nil {
			t.Fatalf("block %d: record after its optimal record", fr.Block)
		}
		switch fr.Stage {
		case "anytime":
			if fr.Merit <= lastMerit[fr.Block] && lastMerit[fr.Block] > 0 {
				t.Fatalf("block %d: anytime merit %v does not improve on %v", fr.Block, fr.Merit, lastMerit[fr.Block])
			}
			if len(fr.Cuts) == 0 {
				t.Fatalf("block %d: anytime record with no cuts", fr.Block)
			}
		case "optimal":
			optimal[fr.Block] = fr
		default:
			t.Fatalf("block %d: unknown stage %q", fr.Block, fr.Stage)
		}
		lastMerit[fr.Block] = fr.Merit
	}
	// Every in-limit block must have been raced to optimality; its record's
	// merit must equal the block's summed selection merits.
	for i, line := range wantLines[:len(wantLines)-1] {
		var br BlockResult
		if err := json.Unmarshal(line, &br); err != nil {
			t.Fatal(err)
		}
		if br.Skipped != "" {
			if optimal[i] != nil || lastMerit[i] != 0 {
				t.Fatalf("skipped block %d has frontier records", i)
			}
			continue
		}
		opt := optimal[i]
		if opt == nil {
			t.Fatalf("undeadlined racing left block %d without an optimal record", i)
		}
		sum := 0.0
		for _, sel := range br.Selections {
			sum += sel.Merit
		}
		if opt.Merit != sum {
			t.Fatalf("block %d: optimal record merit %v != summed selection merit %v", i, opt.Merit, sum)
		}
	}
}

// TestServiceDeadlineParam pins the query-level deadline contract: racing
// accepts a Go duration (the stream stays well-formed whichever racer the
// deadline leaves standing), every other engine rejects it, and malformed
// or negative durations are 400s.
func TestServiceDeadlineParam(t *testing.T) {
	dfg := kernelDFG(t, kernels.Conven00())
	srv := NewServer(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	status, body := postSelect(t, ts, dfg, "?algo=racing&deadline=150ms")
	if status != http.StatusOK {
		t.Fatalf("racing with deadline: status %d: %s", status, body)
	}
	_, rest := splitRaceStream(t, body)
	var sum Summary
	if err := json.Unmarshal(rest[len(rest)-1], &sum); err != nil || sum.Type != "summary" {
		t.Fatalf("deadlined stream did not end in a summary: %s (err %v)", rest[len(rest)-1], err)
	}

	for query, wantSub := range map[string]string{
		"?algo=exact&deadline=100ms": "only read by algo",
		"?algo=racing&deadline=-5s":  "non-negative",
		"?algo=racing&deadline=soon": "bad deadline",
	} {
		status, body := postSelect(t, ts, dfg, query)
		if status != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", query, status)
		}
		if !strings.Contains(string(body), wantSub) {
			t.Fatalf("%s: error %q does not mention %q", query, body, wantSub)
		}
	}
}

// TestServiceMetricsRacingSection pins what the retired /v1/metrics
// "racing" section used to report, read from search.counters deltas on
// one input: a racing job publishes heuristic seeds into the exact bound,
// both racing and exact jobs explore the branch-and-bound tree, and the
// seeded proof explores no more of it than the unseeded one. Viterb00's
// 23-node block keeps the exact search busy for hundreds of milliseconds,
// so K-L's millisecond answer always lands before the proof (on smaller
// kernels the proof can win the race and publish no seed).
func TestServiceMetricsRacingSection(t *testing.T) {
	dfg := kernelDFG(t, kernels.Viterb00())
	srv := NewServer(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	delta := func(query string) map[string]int64 {
		t.Helper()
		before := fetchMetrics(t, ts).Search.Counters
		if status, body := postSelect(t, ts, dfg, query); status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", query, status, body)
		}
		after := fetchMetrics(t, ts).Search.Counters
		d := map[string]int64{}
		for k, v := range after {
			d[k] = v - before[k]
		}
		return d
	}

	racing := delta("?algo=racing")
	if racing["racing_seed_publications"] <= 0 {
		t.Fatalf("racing job moved no racing_seed_publications: %v", racing)
	}
	if racing["exact_explored"] <= 0 {
		t.Fatalf("racing job moved no exact_explored: %v", racing)
	}
	exact := delta("?algo=exact")
	if exact["exact_explored"] <= 0 {
		t.Fatalf("exact job moved no exact_explored: %v", exact)
	}
	if exact["racing_seed_publications"] != 0 {
		t.Fatalf("exact job moved racing_seed_publications by %d", exact["racing_seed_publications"])
	}
	// The headline claim, measured over the same input: the seeded proof
	// explores no more of the tree than the unseeded one.
	if racing["exact_explored"] > exact["exact_explored"] {
		t.Fatalf("seeded explored %d > unseeded %d on the same input",
			racing["exact_explored"], exact["exact_explored"])
	}
}
