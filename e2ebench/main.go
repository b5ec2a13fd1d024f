// Command e2ebench is the end-to-end ISE-selection benchmark. It drives the
// two paths users run: the offline `isegen -json` path (parse, service.Run,
// NDJSON encode) and the isegend HTTP path (service.NewServer on loopback
// with a disk cost-cache store), over four workloads:
//
//	aes             one caller, repeated paper-default jobs on the 696-node AES
//	kernels-racing  one caller, repeated algo=racing jobs on the merged
//	                Figure 4 kernels whose critical block has <= 25 nodes
//	served-new      two tenants POSTing distinct dfggen applications
//	served-repeat   two tenants cycling a 256-application corpus that set-up
//	                pre-filled into the server's disk store
//
// Usage (from the repository root):
//
//	bash e2ebench/run.sh --workload aes --seed 1 --seconds 10 --trace 0
//	bash e2ebench/run.sh --workload all --seconds 5
//	bash e2ebench/run.sh --selfcheck --seconds 4
//
// Every job's output is checked: the stream must equal a set-up reference
// computed offline with Workers 1, every selected cut must pass the
// core.MetricsOf oracle, and on kernels-racing every block record must
// equal the set-up algo=exact record. Failed checks count as failed jobs
// and make the command exit non-zero.
//
// With --trace 0 the last stdout line is a JSON object carrying the
// end-to-end metrics (tracing off); with --trace 1 it carries the
// per-layer metrics of a separate traced run. A human-readable table with
// units and sample counts precedes it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's machine-readable verdict for one invocation.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := fs.Int64("seed", 1, "input seed (dfggen seed of the served workloads)")
	seconds := fs.Float64("seconds", 10, "length of each measured window in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	selfcheck := fs.Bool("selfcheck", false, "plant a 30% slowdown in the aes workload and check that only it is flagged")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	// Every file the benchmark writes (disk stores) lives under the
	// checkout's build directory, removed again on exit.
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	window := time.Duration(*seconds * float64(time.Second))
	sp, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}

	if *selfcheck {
		return selfCheck(stdout, sp.EndToEnd, *seed, window, tmp)
	}
	var todo []*workload
	if *name == "all" {
		todo = workloads
	} else if w := workloadByName(*name); w != nil {
		todo = []*workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "e2ebench: unknown workload %q (have %s, all)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}

	total := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range todo {
		dir := filepath.Join(tmp, w.name)
		var res result
		var err error
		if *trace == 1 {
			res, err = traceWorkload(stdout, w, sp.PerLayer, *seed, window, dir)
		} else {
			res, err = measureWorkload(stdout, w, *seed, window, dir)
			if err == nil {
				err = sp.checkEndToEnd(res.Metrics)
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", w.name, err)
			return 1
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, m := range res.Metrics {
			if len(todo) > 1 {
				k = w.name + "/" + k
			}
			total.Metrics[k] = m
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !total.Correct {
		fmt.Fprintln(os.Stderr, "e2ebench: output checks failed")
		return 1
	}
	return 0
}

// specMetric is one metric entry of BENCHMARK.json.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// spec is the part of BENCHMARK.json the benchmark reads: the metrics it
// must report and, for the self-check, the end-to-end bounds.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from the working directory (the
// repository root).
func loadSpec() (*spec, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &sp, nil
}

// checkEndToEnd verifies that a result reports exactly the end-to-end
// metrics BENCHMARK.json lists, with their units.
func (sp *spec) checkEndToEnd(got map[string]metric) error {
	if len(got) != len(sp.EndToEnd) {
		return fmt.Errorf("reported %d end-to-end metrics, BENCHMARK.json lists %d", len(got), len(sp.EndToEnd))
	}
	for _, m := range sp.EndToEnd {
		if g, ok := got[m.Name]; !ok || g.Unit != m.Unit {
			return fmt.Errorf("end-to-end metric %q (%s) missing or in another unit", m.Name, m.Unit)
		}
	}
	return nil
}

// buildDir is the checkout-relative scratch area shared with run.sh.
const buildDir = ".bench_build"

// row is one line of the human-readable table.
type row struct {
	name  string
	m     metric
	count string
}

// printTable writes the human-readable report of one workload: every
// metric with its unit and sample count, sorted by name.
func printTable(w io.Writer, title string, rows []row) {
	fmt.Fprintln(w, title)
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	for _, r := range rows {
		fmt.Fprintf(w, "  %-28s %14.6g %-10s %s\n", r.name, r.m.Value, r.m.Unit, r.count)
	}
}
