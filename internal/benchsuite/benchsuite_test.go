package benchsuite

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// TestBaselineCoversTable pins the table to the checked-in baseline in
// both directions: a suite the baseline lacks would run ungated, and a
// baseline entry the table lacks would fail `isebench -diff`. It runs no
// suite.
func TestBaselineCoversTable(t *testing.T) {
	raw, err := os.ReadFile("../../BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct{ Benches []struct{ Name string } }
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var base, table []string
	for _, b := range bf.Benches {
		base = append(base, b.Name)
	}
	for _, s := range Suites() {
		table = append(table, s.Name)
	}
	slices.Sort(base)
	slices.Sort(table)
	if !slices.Equal(base, table) {
		t.Errorf("BENCH_baseline.json suites %v != benchsuite.Suites() %v; re-baseline with go run ./cmd/isebench -json -rev baseline -out BENCH_baseline.json", base, table)
	}
}
