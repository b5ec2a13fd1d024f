package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// Allocation tolerances for the -diff gate. Sequential suites drive the
// engines without spawning goroutines, so their allocs/op are deterministic
// up to runtime noise (GC bookkeeping, timer internals) — a small epsilon
// absorbs that while still failing any real regression by orders of
// magnitude. Parallel suites additionally see pool hits and goroutine
// spawns vary with scheduling and CPU count, so they get a wider band, and
// so do racingSuites, whose racers always run on their own goroutines.
const (
	seqAllocSlackPct = 2
	seqAllocSlackAbs = 64
	parAllocSlackPct = 20
	parAllocSlackAbs = 256
)

// counterWarnPct is the growth threshold for engine work counters in
// -diff: a suite whose exact_explored (or toggles, probes, ...) grew past
// this warns even when its ns/op sits inside the tolerance — more work at
// the same wall-clock usually means the next machine pays for it.
const counterWarnPct = 10

// workCounters are the counter deltas -diff gates on: monotone measures
// of search effort, where growth means the engine did more work for the
// same answer. Deliberately excluded: pool/cache hit counters (growth
// there is an improvement) and bound raises (more raises can mean faster
// convergence).
var workCounters = []string{
	"kl_toggles", "kl_probes", "kl_cp_full_sweeps", "kl_gain_rebuilds",
	"kl_gaincache_misses", "kl_pool_misses", "exact_explored",
	"exact_subtree_tasks", "genetic_evaluations",
}

// pinnedCounters names the suites whose exact_explored is deterministic:
// a sequential exact search explores the same tree on every machine and
// run, so any growth past the baseline means the search lost pruning
// (a looser bound, say) and fails the gate. Parallel and racing suites
// depend on scheduling and stay warn-only through counterDeltas.
var pinnedCounters = map[string]bool{
	"figure4/exact/seq":     true,
	"figure4/iterative/seq": true,
}

// pinnedGrowth reports a pinned suite's exact_explored growth past the
// baseline, or "" when there is none. A pinned suite without the counter
// on either side fails too, so a dropped counter cannot switch the check
// off.
func pinnedGrowth(name string, base, fresh map[string]int64) string {
	if !pinnedCounters[name] {
		return ""
	}
	b, okB := base["exact_explored"]
	f, okF := fresh["exact_explored"]
	switch {
	case !okB || !okF:
		return "  exact_explored missing (pinned; both files must carry it)"
	case f > b:
		return fmt.Sprintf("  exact_explored grew: %d -> %d (deterministic; must not exceed baseline)", b, f)
	}
	return ""
}

// racingSuites names the suites that run the racing engine. Their
// allocs/op depend on timing: the exact proof cancels the K-L and genetic
// racers when it lands, at a point set by the scheduler, and the racers'
// allocations (a few per genetic evaluation or K-L toggle) make up most of
// what the run allocates on top of the proof. allocBase scales their
// baseline by how far the racers got.
var racingSuites = map[string]bool{
	"figure4/racing/seq": true,
	"figure4/racing/par": true,
}

// racingProgress are the work counters that measure how far a racing
// run's heuristic racers got before the proof cancelled them.
var racingProgress = []string{"genetic_evaluations", "kl_toggles"}

// allocBase returns the baseline allocs/op a suite's fresh run is held
// to. For racingSuites it adds, per racingProgress counter that grew, the
// baseline times the counter's relative growth: each racer allocates at
// most the whole baseline, in proportion to its progress. A run whose
// racers got less far keeps the baseline unscaled, and so does a pair
// lacking the counters.
func allocBase(name string, base benchRecord, fresh map[string]int64) uint64 {
	allocs := base.AllocsPerOp
	if !racingSuites[name] {
		return allocs
	}
	for _, c := range racingProgress {
		if b, f := base.Counters[c], fresh[c]; b > 0 && f > b {
			allocs += base.AllocsPerOp * uint64(f-b) / uint64(b)
		}
	}
	return allocs
}

// counterDeltas compares a suite's work-counter deltas against the
// baseline, returning one line per counter that grew past counterWarnPct
// (a warning) and one per counter that shrank past it. Improvements are
// reported, not merely left silent, so a perf PR's counter win shows up
// in the gate output — and a forgotten re-baseline after such a PR is
// visible as a wall of improvement lines instead of nothing. Files
// without counters (older schema-1 baselines) are silently ungated —
// both sides must carry a counter for it to be compared.
func counterDeltas(base, fresh map[string]int64) (grew, shrank []string) {
	for _, name := range workCounters {
		b, okB := base[name]
		f, okF := fresh[name]
		if !okB || !okF || b <= 0 {
			continue
		}
		switch {
		case f > b+b*counterWarnPct/100:
			grew = append(grew, fmt.Sprintf("%s %d -> %d (%+.1f%%, warn at +%d%%)",
				name, b, f, pctDelta(float64(f), float64(b)), counterWarnPct))
		case f < b-b*counterWarnPct/100:
			shrank = append(shrank, fmt.Sprintf("%s %d -> %d (%+.1f%%)",
				name, b, f, pctDelta(float64(f), float64(b))))
		}
	}
	return grew, shrank
}

// loadBenchFile reads one BENCH_<rev>.json.
func loadBenchFile(path string) (*benchFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if bf.Schema != 1 {
		return nil, fmt.Errorf("%s: unsupported schema %d", path, bf.Schema)
	}
	return &bf, nil
}

// allocLimit returns the failure threshold for a suite's allocs/op.
func allocLimit(name string, base uint64) uint64 {
	pct, abs := uint64(seqAllocSlackPct), uint64(seqAllocSlackAbs)
	if strings.HasSuffix(name, "/par") || racingSuites[name] {
		pct, abs = parAllocSlackPct, parAllocSlackAbs
	}
	slack := base * pct / 100
	if slack < abs {
		slack = abs
	}
	return base + slack
}

// runBenchDiff is the `isebench -diff` gate: compare a freshly measured
// benchmark file against the tracked baseline, suite by suite. Allocation
// regressions fail (allocs are deterministic modulo the slack above, and
// racingSuites are first scaled by their racers' progress), and so does
// exact_explored growth on the pinnedCounters suites;
// ns/op regressions past nsTol (a ratio, e.g. 0.5 = +50%) only warn, since
// wall-clock depends on the machine the gate runs on. A suite present in
// the baseline but missing from the fresh file fails — silently dropping a
// measurement would hide exactly the regression the gate exists to catch.
func runBenchDiff(basePath, freshPath string, nsTol float64) error {
	base, err := loadBenchFile(basePath)
	if err != nil {
		return err
	}
	fresh, err := loadBenchFile(freshPath)
	if err != nil {
		return err
	}
	freshBy := make(map[string]benchRecord, len(fresh.Benches))
	for _, r := range fresh.Benches {
		freshBy[r.Name] = r
	}
	fmt.Printf("bench-diff: %s (rev %s, %d cpus) vs %s (rev %s, %d cpus)\n",
		freshPath, fresh.Rev, fresh.CPUs, basePath, base.Rev, base.CPUs)
	// On a 1-CPU machine the parallel suites degenerate to their sequential
	// twins: fan-out buys nothing, so a /par ns/op sitting on top of /seq is
	// the expected shape, not a regression signal. Say so on every /par line
	// rather than leaving the reader to reverse-engineer it from the header.
	oneCPU := base.CPUs == 1 || fresh.CPUs == 1
	failures := 0
	for _, b := range base.Benches {
		f, ok := freshBy[b.Name]
		if !ok {
			fmt.Printf("FAIL %-24s missing from %s\n", b.Name, freshPath)
			failures++
			continue
		}
		delete(freshBy, b.Name) // what is left after the loop is ungated
		status := "ok  "
		detail := ""
		if limit := allocLimit(b.Name, allocBase(b.Name, b, f.Counters)); f.AllocsPerOp > limit {
			status = "FAIL"
			detail = fmt.Sprintf("  allocs/op regressed: %d -> %d (limit %d)", b.AllocsPerOp, f.AllocsPerOp, limit)
			failures++
		} else if g := pinnedGrowth(b.Name, b.Counters, f.Counters); g != "" {
			status = "FAIL"
			detail = g
			failures++
		} else if b.NsPerOp > 0 && float64(f.NsPerOp) > float64(b.NsPerOp)*(1+nsTol) {
			status = "WARN"
			detail = fmt.Sprintf("  ns/op %.2fx baseline (tolerance %.2fx)", float64(f.NsPerOp)/float64(b.NsPerOp), 1+nsTol)
		}
		if oneCPU && strings.HasSuffix(b.Name, "/par") {
			detail += "  [1 cpu: parity with /seq expected]"
		}
		// Work-counter regressions warn even when ns/op is in tolerance:
		// wall-clock noise can mask an engine quietly exploring more nodes.
		cwarns, cwins := counterDeltas(b.Counters, f.Counters)
		if status == "ok  " && len(cwarns) > 0 {
			status = "WARN"
		}
		fmt.Printf("%s %-24s %12d ns/op (%+6.1f%%) %10d allocs/op (%+6.1f%%)%s\n",
			status, b.Name,
			f.NsPerOp, pctDelta(float64(f.NsPerOp), float64(b.NsPerOp)),
			f.AllocsPerOp, pctDelta(float64(f.AllocsPerOp), float64(b.AllocsPerOp)),
			detail)
		for _, cw := range cwarns {
			fmt.Printf("     %-24s work counter regressed: %s\n", "", cw)
		}
		for _, ci := range cwins {
			fmt.Printf("     %-24s work counter improved: %s (re-baseline to lock in)\n", "", ci)
		}
	}
	// The mirror direction: a fresh suite with no baseline entry is not
	// gated at all — surface it so adding a benchmark without
	// re-baselining does not silently escape the gate forever.
	for _, f := range fresh.Benches {
		if _, ungated := freshBy[f.Name]; ungated {
			fmt.Printf("WARN %-24s not in %s: ungated; re-baseline to start tracking it\n", f.Name, basePath)
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d suite(s) regressed allocs/op or a pinned work counter against %s", failures, basePath)
	}
	return nil
}

func pctDelta(now, was float64) float64 {
	if was == 0 {
		return 0
	}
	return (now/was - 1) * 100
}
