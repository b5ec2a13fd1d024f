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
// spawns vary with scheduling and CPU count, so they get a wider band.
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

// counterWarnings compares a suite's work-counter deltas against the
// baseline, returning one warning line per counter that grew past
// counterWarnPct. Files without counters (older schema-1 baselines) are
// silently ungated — both sides must carry a counter for it to be
// compared.
func counterWarnings(base, fresh map[string]int64) []string {
	var warns []string
	for _, name := range workCounters {
		b, okB := base[name]
		f, okF := fresh[name]
		if !okB || !okF || b <= 0 {
			continue
		}
		if f > b+b*counterWarnPct/100 {
			warns = append(warns, fmt.Sprintf("%s %d -> %d (%+.1f%%, warn at +%d%%)",
				name, b, f, pctDelta(float64(f), float64(b)), counterWarnPct))
		}
	}
	return warns
}

// counterImprovements is counterWarnings' mirror: work counters that
// shrank past counterWarnPct. Reported (not merely stayed silent on) so a
// perf PR's counter win shows up in the gate output — and so a forgotten
// re-baseline after such a PR is visible as a wall of improvement lines
// instead of nothing.
func counterImprovements(base, fresh map[string]int64) []string {
	var wins []string
	for _, name := range workCounters {
		b, okB := base[name]
		f, okF := fresh[name]
		if !okB || !okF || b <= 0 {
			continue
		}
		if f < b-b*counterWarnPct/100 {
			wins = append(wins, fmt.Sprintf("%s %d -> %d (%+.1f%%)",
				name, b, f, pctDelta(float64(f), float64(b))))
		}
	}
	return wins
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
	if strings.HasSuffix(name, "/par") {
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
// regressions fail (allocs are deterministic modulo the slack above);
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
		status := "ok  "
		detail := ""
		if limit := allocLimit(b.Name, b.AllocsPerOp); f.AllocsPerOp > limit {
			status = "FAIL"
			detail = fmt.Sprintf("  allocs/op regressed: %d -> %d (limit %d)", b.AllocsPerOp, f.AllocsPerOp, limit)
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
		cwarns := counterWarnings(b.Counters, f.Counters)
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
		for _, ci := range counterImprovements(b.Counters, f.Counters) {
			fmt.Printf("     %-24s work counter improved: %s (re-baseline to lock in)\n", "", ci)
		}
	}
	// The mirror direction: a fresh suite with no baseline entry is not
	// gated at all — surface it so adding a benchmark without
	// re-baselining does not silently escape the gate forever.
	baseBy := make(map[string]bool, len(base.Benches))
	for _, b := range base.Benches {
		baseBy[b.Name] = true
	}
	for _, f := range fresh.Benches {
		if !baseBy[f.Name] {
			fmt.Printf("WARN %-24s not in %s: ungated; re-baseline to start tracking it\n", f.Name, basePath)
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d suite(s) regressed allocs/op against %s", failures, basePath)
	}
	return nil
}

func pctDelta(now, was float64) float64 {
	if was == 0 {
		return 0
	}
	return (now/was - 1) * 100
}
