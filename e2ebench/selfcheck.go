package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"
)

// selfCheckRuns is how many runs per side --selfcheck makes per workload.
const selfCheckRuns = 3

// worse reports whether the changed median is worse than the base median
// by more than the bound.
func (b specMetric) worse(base, changed float64) bool {
	if b.Better == "higher" {
		return changed < base*(1-b.Bound)
	}
	return changed > base*(1+b.Bound)
}

// plantWorkload is the workload --selfcheck slows: an offline one, whose
// emit wrapper is the benchmark's own code.
const plantWorkload = "aes"

// selfCheck shows that the benchmark's comparison catches a planted 30%
// slowdown: every workload runs selfCheckRuns times plain and
// selfCheckRuns times planted (alternating), but only plantWorkload's
// measured path is slowed, by a delay of plantFactor × the job's elapsed
// time in the offline emit wrapper. The medians are compared with
// BENCHMARK.json's bounds; the check passes when job_p50_ms is flagged on
// the planted workload and nothing is flagged on any other.
func selfCheck(out io.Writer, bounds []specMetric, seed int64, window time.Duration, tmp string) int {
	ok := true
	for _, w := range workloads {
		dir := filepath.Join(tmp, "selfcheck-"+w.name)
		fx, setupTimes, err := setUp(w, seed, window, dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: selfcheck %s: %v\n", w.name, err)
			return 1
		}
		side := map[bool]map[string][]float64{false: {}, true: {}}
		for i := 0; i < 2*selfCheckRuns; i++ {
			planted := i%2 == 1 && w.name == plantWorkload
			res, err := measureFixture(io.Discard, w, fx, setupTimes, seed, window, dir, planted)
			if err != nil {
				fmt.Fprintf(os.Stderr, "e2ebench: selfcheck %s: %v\n", w.name, err)
				return 1
			}
			if !res.Correct {
				fmt.Fprintf(os.Stderr, "e2ebench: selfcheck %s: output checks failed\n", w.name)
				return 1
			}
			for k, m := range res.Metrics {
				side[i%2 == 1][k] = append(side[i%2 == 1][k], m.Value)
			}
		}
		var flagged []string
		for _, b := range bounds {
			base, changed := median(side[false][b.Name]), median(side[true][b.Name])
			mark := ""
			if b.worse(base, changed) {
				mark = "  FLAGGED"
				flagged = append(flagged, b.Name)
			}
			fmt.Fprintf(out, "%-15s %-12s base %12.6g  second %12.6g  (%+.1f%%, bound %.0f%%)%s\n",
				w.name, b.Name, base, changed, 100*(changed/base-1), 100*b.Bound, mark)
		}
		sort.Strings(flagged)
		switch {
		case w.name == plantWorkload && !slices.Contains(flagged, "job_p50_ms"):
			fmt.Fprintf(out, "selfcheck: planted slowdown on %s not flagged on job_p50_ms\n", w.name)
			ok = false
		case w.name != plantWorkload && len(flagged) > 0:
			fmt.Fprintf(out, "selfcheck: unplanted workload %s flagged on %v\n", w.name, flagged)
			ok = false
		}
	}
	verdict := map[bool]string{true: "PASS", false: "FAIL"}[ok]
	fmt.Fprintf(out, "selfcheck %s: planted %.0f%% slowdown in %s\n", verdict, 100*plantFactor, plantWorkload)
	if !ok {
		return 1
	}
	return 0
}
