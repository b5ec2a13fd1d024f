package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	isegen "repro"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/kernels"
	"repro/internal/latency"
	"repro/internal/obs"
	"repro/internal/search"
)

// benchRecord is one measured suite in the JSON benchmark file: wall time
// and allocation counts for a single iteration (-benchtime=1x semantics,
// the same protocol as the CI benchmark smoke step), plus the
// engine-internal counter deltas observed during the run — work measures
// (nodes explored, toggles, probes) that stay meaningful when wall-clock
// is noisy. Counters are recorded with a counters-only recorder (span
// recording disabled), whose overhead is a handful of atomic adds per
// trajectory/search, so allocs/op stays comparable with older files.
type benchRecord struct {
	Name        string           `json:"name"`
	NsPerOp     int64            `json:"ns_per_op"`
	AllocsPerOp uint64           `json:"allocs_per_op"`
	BytesPerOp  uint64           `json:"bytes_per_op"`
	Counters    map[string]int64 `json:"counters,omitempty"`
}

// benchFile is the BENCH_<rev>.json schema: enough provenance to compare
// two revisions' trajectories honestly (CPU count matters — on a 1-CPU
// container the parallel suites show parity with the sequential ones).
type benchFile struct {
	Schema    int           `json:"schema"`
	Rev       string        `json:"rev"`
	GoVersion string        `json:"go_version"`
	CPUs      int           `json:"cpus"`
	BenchTime string        `json:"bench_time"`
	Benches   []benchRecord `json:"benches"`
}

// gitRev resolves the current commit (short) by reading .git directly, so
// the harness needs no git binary; "dev" when unavailable.
func gitRev() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "dev"
	}
	ref := strings.TrimSpace(string(head))
	if h, ok := strings.CutPrefix(ref, "ref: "); ok {
		b, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(h)))
		if err == nil {
			ref = strings.TrimSpace(string(b))
		} else if packed := packedRef(h); packed != "" {
			// Fresh clones and gc'd repositories keep refs in
			// .git/packed-refs rather than loose files.
			ref = packed
		} else {
			return "dev"
		}
	}
	if len(ref) < 12 {
		return "dev"
	}
	return ref[:12]
}

// packedRef looks a ref name up in .git/packed-refs ("<hash> <refname>"
// lines; '#' comments and '^' peel lines skipped).
func packedRef(name string) string {
	b, err := os.ReadFile(".git/packed-refs")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(b), "\n") {
		if line == "" || line[0] == '#' || line[0] == '^' {
			continue
		}
		hash, ref, ok := strings.Cut(line, " ")
		if ok && strings.TrimSpace(ref) == name {
			return hash
		}
	}
	return ""
}

// measure runs fn once, recording wall time and allocation deltas (a GC
// first stabilizes the Mallocs counter against leftover garbage).
func measure(name string, fn func()) benchRecord {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	fn()
	dur := time.Since(start)
	runtime.ReadMemStats(&after)
	return benchRecord{
		Name:        name,
		NsPerOp:     dur.Nanoseconds(),
		AllocsPerOp: after.Mallocs - before.Mallocs,
		BytesPerOp:  after.TotalAlloc - before.TotalAlloc,
	}
}

// benchSuites are the Figure 4 and Figure 6 measurement points, each as a
// sequential / parallel pair so the perf trajectory captures both the
// allocation work (visible on any machine) and the fan-out speedup
// (visible on multi-core hosts only), plus the Figure 7 instance matcher
// (single-threaded, so it has no pair). Each suite takes the harness
// context, which carries a counters-only recorder so the record can
// report work deltas next to ns/op.
func benchSuites() []struct {
	name string
	fn   func(ctx context.Context)
} {
	model := latency.Default()
	fig4KL := func(workers int) func(context.Context) {
		return func(ctx context.Context) {
			specs := kernels.All()
			r := &search.Runner{Workers: workers, Cache: search.NewCostCache()}
			for _, spec := range specs {
				cfg := core.DefaultConfig()
				if _, _, err := r.GenerateContext(ctx, spec.App, cfg, search.Merit(model), nil); err != nil {
					fatal(err)
				}
			}
		}
	}
	fig4Iterative := func(subtreeWorkers int) func(context.Context) {
		return func(ctx context.Context) {
			for _, spec := range kernels.All() {
				if spec.CriticalSize > 100 {
					continue
				}
				opt := exact.Options{MaxIn: 4, MaxOut: 2, Model: model, Budget: 2_000_000_000, Workers: subtreeWorkers}
				if _, err := exact.IterativeContext(ctx, spec.App.Blocks[0], opt, 4); err != nil {
					fatal(err)
				}
			}
		}
	}
	fig4Exact := func(subtreeWorkers int) func(context.Context) {
		return func(ctx context.Context) {
			for _, spec := range kernels.All() {
				if spec.CriticalSize > 25 {
					continue
				}
				opt := exact.Options{MaxIn: 4, MaxOut: 2, Model: model, Budget: 2_000_000_000, Workers: subtreeWorkers}
				if _, err := exact.MultiCutContext(ctx, spec.App.Blocks[0], opt, 4); err != nil {
					fatal(err)
				}
			}
		}
	}
	// fig4Racing covers exactly fig4Exact's kernel subset so the pair is
	// directly comparable: same blocks, same optimal answers, the racing
	// suite measuring how much the K-L-seeded bound prunes the proof.
	fig4Racing := func(klWorkers, subtreeWorkers int) func(context.Context) {
		return func(ctx context.Context) {
			for _, spec := range kernels.All() {
				if spec.CriticalSize > 25 {
					continue
				}
				eng := &search.Racing{Cache: search.NewCostCache()}
				lim := &search.Limits{
					MaxIn: 4, MaxOut: 2, NISE: 4, Budget: 2_000_000_000,
					Workers: klWorkers, SubtreeWorkers: subtreeWorkers,
				}
				if _, _, err := eng.RunContext(ctx, spec.App.Blocks[0], search.Merit(model), lim); err != nil {
					fatal(err)
				}
			}
		}
	}
	fig6AES := func(workers int) func(context.Context) {
		return func(ctx context.Context) {
			app := kernels.AES()
			cfg := isegen.DefaultConfig()
			cfg.Workers = workers
			if _, err := isegen.GenerateContext(ctx, app, cfg, nil); err != nil {
				fatal(err)
			}
		}
	}
	// fig7Reuse measures the instance matcher alone, as
	// BenchmarkFigure7Reuse does: the xtime cut ISEGEN selects on AES
	// under (2,1) is identified once, outside the measured call, and the
	// suite finds its occurrences across the application.
	fig7Reuse := func() func(context.Context) {
		app := kernels.AES()
		cfg := isegen.DefaultConfig()
		cfg.MaxIn, cfg.MaxOut, cfg.NISE = 2, 1, 1
		cuts, err := isegen.GenerateCutsOnly(app, cfg)
		if err != nil {
			fatal(err)
		}
		if len(cuts) == 0 {
			fatal(fmt.Errorf("figure7/reuse: no cut on AES under (2,1)"))
		}
		return func(context.Context) { isegen.FindInstances(app, 0, cuts[0].Nodes, 0) }
	}
	return []struct {
		name string
		fn   func(ctx context.Context)
	}{
		{"figure4/isegen/seq", fig4KL(1)},
		{"figure4/isegen/par", fig4KL(0)},
		{"figure4/iterative/seq", fig4Iterative(0)},
		{"figure4/iterative/par", fig4Iterative(-1)},
		{"figure4/exact/seq", fig4Exact(0)},
		{"figure4/exact/par", fig4Exact(-1)},
		{"figure4/racing/seq", fig4Racing(1, 0)},
		{"figure4/racing/par", fig4Racing(0, -1)},
		{"figure6/aes/seq", fig6AES(1)},
		{"figure6/aes/par", fig6AES(0)},
		{"figure7/reuse", fig7Reuse()},
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "isebench:", err)
	os.Exit(1)
}

// runBenchJSON is the `isebench -json` mode: measure every suite once and
// write BENCH_<rev>.json (or `out`; "-" for stdout). The checked-in
// BENCH_baseline.json is one of these files, seeding the repository's
// tracked perf trajectory.
func runBenchJSON(rev, out string) error {
	if rev == "" {
		rev = gitRev()
	}
	bf := benchFile{
		Schema:    1,
		Rev:       rev,
		GoVersion: runtime.Version(),
		CPUs:      runtime.GOMAXPROCS(0),
		BenchTime: "1x",
	}
	for _, s := range benchSuites() {
		// Counters-only recorder: span recording disabled (cap 0), so the
		// span path stays out of the measured allocation counts and only
		// the per-flush atomic adds ride along.
		or := obs.NewRecorder(0)
		ctx := obs.WithRecorder(context.Background(), or)
		rec := measure(s.name, func() { s.fn(ctx) })
		rec.Counters = or.Counters().Map()
		fmt.Fprintf(os.Stderr, "%-24s %12d ns/op %10d allocs/op %12d B/op\n",
			rec.Name, rec.NsPerOp, rec.AllocsPerOp, rec.BytesPerOp)
		bf.Benches = append(bf.Benches, rec)
	}
	var w io.Writer
	switch out {
	case "-":
		w = os.Stdout
	case "":
		out = "BENCH_" + rev + ".json"
		fallthrough
	default:
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
		fmt.Fprintln(os.Stderr, "writing", out)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(bf)
}
