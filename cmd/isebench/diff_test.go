package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/benchsuite"
)

// writeRecords writes a bench file holding recs and returns its path.
func writeRecords(t *testing.T, name string, recs ...benchRecord) string {
	t.Helper()
	b, err := json.Marshal(benchFile{Schema: 1, Rev: name, CPUs: 2, Benches: recs})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name+".json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// writeBench writes one suite per entry of explored, each carrying that
// exact_explored count, and returns the file's path.
func writeBench(t *testing.T, name string, explored map[string]int64) string {
	t.Helper()
	var recs []benchRecord
	for suite, e := range explored {
		recs = append(recs, benchRecord{
			Name: suite, NsPerOp: 1000, AllocsPerOp: 100,
			Counters: map[string]int64{"exact_explored": e},
		})
	}
	return writeRecords(t, name, recs...)
}

// TestDiffFailsOnPinnedCounterGrowth: exact_explored growth past the
// baseline fails the gate on the deterministic sequential exact suites,
// by a single node, and only warns on parallel and racing suites.
func TestDiffFailsOnPinnedCounterGrowth(t *testing.T) {
	base := map[string]int64{
		"figure4/exact/seq":     1000,
		"figure4/iterative/seq": 500,
		"figure4/exact/par":     2000,
		"figure4/racing/seq":    800,
	}
	basePath := writeBench(t, "base", base)
	if err := runBenchDiff(basePath, writeBench(t, "same", base), 1.0); err != nil {
		t.Fatalf("identical counters: %v", err)
	}
	for _, suite := range []string{"figure4/exact/seq", "figure4/iterative/seq"} {
		grown := map[string]int64{}
		for k, v := range base {
			grown[k] = v
		}
		grown[suite]++
		if err := runBenchDiff(basePath, writeBench(t, "grown", grown), 1.0); err == nil {
			t.Errorf("%s: exact_explored %d -> %d passed the gate", suite, base[suite], grown[suite])
		}
	}
	warnOnly := map[string]int64{}
	for k, v := range base {
		warnOnly[k] = 2 * v
	}
	warnOnly["figure4/exact/seq"] = base["figure4/exact/seq"] / 2
	warnOnly["figure4/iterative/seq"] = base["figure4/iterative/seq"]
	if err := runBenchDiff(basePath, writeBench(t, "warn", warnOnly), 1.0); err != nil {
		t.Errorf("parallel/racing counter growth and a pinned shrink must not fail: %v", err)
	}
}

// TestDiffFailsOnMissingPinnedCounter: a pinned suite whose exact_explored
// is missing on either side fails instead of passing unchecked.
func TestDiffFailsOnMissingPinnedCounter(t *testing.T) {
	with := benchRecord{Name: "figure4/exact/seq", NsPerOp: 1000, AllocsPerOp: 100,
		Counters: map[string]int64{"exact_explored": 1000}}
	without := benchRecord{Name: "figure4/exact/seq", NsPerOp: 1000, AllocsPerOp: 100}
	withPath, withoutPath := writeRecords(t, "with", with), writeRecords(t, "without", without)
	if err := runBenchDiff(withPath, withoutPath, 1.0); err == nil {
		t.Error("counter dropped from the fresh file passed the gate")
	}
	if err := runBenchDiff(withoutPath, withPath, 1.0); err == nil {
		t.Error("counter missing from the baseline passed the gate")
	}
}

// TestDiffRacingAllocsScaleWithProgress: a racing suite's allocation
// limit grows with its racers' progress counters, so a run whose racers
// got further before the proof cancelled them passes, while a run that
// allocates more for the same progress, or carries no progress counters,
// fails. Other suites are never scaled.
func TestDiffRacingAllocsScaleWithProgress(t *testing.T) {
	racing := func(allocs uint64, evals, toggles int64) benchRecord {
		r := benchRecord{Name: "figure4/racing/seq", NsPerOp: 1000, AllocsPerOp: allocs}
		if evals > 0 {
			r.Counters = map[string]int64{"genetic_evaluations": evals, "kl_toggles": toggles}
		}
		return r
	}
	basePath := writeRecords(t, "base", racing(30000, 5000, 600))
	for _, tc := range []struct {
		label string
		fresh benchRecord
		pass  bool
	}{
		// Limit (30000 + 30000 + 15000) × 1.2 = 90000.
		{"both racers further", racing(85000, 10000, 900), true},
		{"more allocs per unit of progress", racing(95000, 10000, 900), false},
		// Limit 30000 × 1.2 = 36000, unscaled.
		{"racers less far", racing(35000, 4000, 500), true},
		{"same progress, more allocs", racing(37000, 5000, 600), false},
		{"no progress counters", racing(37000, 0, 0), false},
	} {
		err := runBenchDiff(basePath, writeRecords(t, "fresh", tc.fresh), 1.0)
		if (err == nil) != tc.pass {
			t.Errorf("%s: allocs %d: err = %v, want pass %v", tc.label, tc.fresh.AllocsPerOp, err, tc.pass)
		}
	}
	genetic := func(allocs uint64, evals int64) benchRecord {
		return benchRecord{Name: "figure4/genetic", NsPerOp: 1000, AllocsPerOp: allocs,
			Counters: map[string]int64{"genetic_evaluations": evals}}
	}
	if err := runBenchDiff(writeRecords(t, "gbase", genetic(30000, 5000)),
		writeRecords(t, "gfresh", genetic(45000, 10000)), 1.0); err == nil {
		t.Error("figure4/genetic allocs scaled with its evaluations; only racing suites may be")
	}
}

// TestGatedSuitesInTable: every suite the gate names is in the benchsuite
// table, so renaming a suite cannot switch its rule off silently.
func TestGatedSuitesInTable(t *testing.T) {
	table := map[string]bool{}
	for _, s := range benchsuite.Suites() {
		table[s.Name] = true
	}
	for _, names := range []map[string]bool{pinnedCounters, racingSuites} {
		for name := range names {
			if !table[name] {
				t.Errorf("gate names %q, which is not in benchsuite.Suites()", name)
			}
		}
	}
}
