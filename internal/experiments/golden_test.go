package experiments

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/figures_golden.txt from this run")

const figuresGolden = "testdata/figures_golden.txt"

// g formats a float so that any bit change shows in the golden.
func g(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func joinInts(xs []int) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = strconv.Itoa(x)
	}
	return strings.Join(s, ",")
}

func fig4Golden(rows []Fig4Row) []string {
	var out []string
	for _, r := range rows {
		for _, a := range AlgoNames {
			if v, ok := r.Speedup[a]; ok {
				out = append(out, fmt.Sprintf("fig4 %s %s speedup %s", r.Benchmark, a, g(v)))
			} else {
				out = append(out, fmt.Sprintf("fig4 %s %s note %s", r.Benchmark, a, r.Note[a]))
			}
		}
	}
	return out
}

func fig6Golden(nise int, pts []Fig6Point) []string {
	out := make([]string, len(pts))
	for i, p := range pts {
		out[i] = fmt.Sprintf("fig6 nise=%d io=%d,%d genetic %s isegen %s", nise, p.IO[0], p.IO[1], g(p.Genetic), g(p.ISEGEN))
	}
	return out
}

func fig7Golden(rows []Fig7Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprintf("fig7 io=%d,%d sizes %s instances %s", r.IO[0], r.IO[1], joinInts(r.CutSizes), joinInts(r.Instances))
	}
	return out
}

// checkGolden compares got against the golden lines that start with
// prefix, in order. With -update it rewrites those lines instead and
// leaves the other figures' lines as they are.
func checkGolden(t *testing.T, prefix string, got []string) {
	t.Helper()
	data, err := os.ReadFile(figuresGolden)
	if err != nil && !(*update && os.IsNotExist(err)) {
		t.Fatalf("read golden: %v (record it with -update)", err)
	}
	var want, rest []string
	for _, l := range strings.Split(string(data), "\n") {
		switch {
		case l == "":
		case strings.HasPrefix(l, prefix+" "):
			want = append(want, l)
		default:
			rest = append(rest, l)
		}
	}
	if *update {
		all := append(rest, got...)
		sort.SliceStable(all, func(i, j int) bool {
			return strings.Fields(all[i])[0] < strings.Fields(all[j])[0]
		})
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(figuresGolden, []byte(strings.Join(all, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if len(got) != len(want) {
		t.Errorf("%s golden: got %d lines, want %d", prefix, len(got), len(want))
	}
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Errorf("%s golden line %d:\n got  %s\n want %s", prefix, i+1, got[i], want[i])
		}
	}
}
