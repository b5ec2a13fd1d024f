package genetic

import (
	"crypto/sha256"
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/kernels"
	"repro/internal/latency"
)

// gaGolden holds the fingerprint of Iterative (MaxIn 4, MaxOut 2, NISE 4,
// Seed 1) on each Figure 4 kernel's critical block and on AES block 0.
// Fitness reads every costed field — a drifted NViol changes the penalty
// and so the evolved cuts — so any change to how a chromosome is costed
// shows up here even when the returned cuts stay valid.
var gaGolden = []struct{ name, fp string }{
	{"conven00", "b82c85c4b5b3bc0f"},
	{"fbital00", "edbe6364a0b7dc35"},
	{"viterb00", "13d8a5bd20c10c7d"},
	{"autcor00", "2a0a523cdb9d6e02"},
	{"adpcm_decoder", "7cc41b2e2a6e6377"},
	{"adpcm_coder", "19fc8cbccf147ff9"},
	{"fft00", "b249dee691221cf1"},
	{"aes", "7ec0529b1a1200bd"},
}

// gaFingerprint hashes the cuts' node sets and costed fields, floats by
// their bits.
func gaFingerprint(cuts []*core.Cut) string {
	h := sha256.New()
	for _, c := range cuts {
		fmt.Fprintf(h, "%v|%d|%x|%d|%d;", c.Nodes, c.SWLat, math.Float64bits(c.HWLat), c.NumIn, c.NumOut)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// memoMetrics is a memoizing core.MetricsFunc over one block, standing in
// for the search layer's cost cache.
func memoMetrics() core.MetricsFunc {
	memo := map[string]core.Metrics{}
	return func(blk *ir.Block, model *latency.Model, cut *graph.BitSet) core.Metrics {
		key := fmt.Sprint(cut.Words())
		m, ok := memo[key]
		if !ok {
			m = core.MetricsOf(blk, model, cut)
			memo[key] = m
		}
		return m
	}
}

// TestIterativeGolden pins the genetic baseline's answers, costing both
// directly (nil Metrics) and through a memoizing MetricsFunc.
func TestIterativeGolden(t *testing.T) {
	blocks := map[string]*ir.Block{"aes": kernels.AES().Blocks[0]}
	for _, s := range kernels.All() {
		blocks[s.Name] = s.App.Blocks[0]
	}
	for _, g := range gaGolden {
		blk := blocks[g.name]
		for _, memo := range []bool{false, true} {
			opt := defaultOpts()
			if memo {
				opt.Metrics = memoMetrics()
			}
			cuts, err := Iterative(blk, opt, 4)
			if err != nil {
				t.Fatal(err)
			}
			if len(cuts) == 0 {
				t.Fatalf("%s: no cuts", g.name)
			}
			if got := gaFingerprint(cuts); got != g.fp {
				t.Errorf("%s (memoized %v): fingerprint %s, want %s", g.name, memo, got, g.fp)
			}
		}
	}
}
