// Package difftest is the differential invariant harness: it runs randomly
// generated blocks (internal/dfggen) through the real search.Engine
// registry — K-L ISEGEN, the exact DAC'03 enumeration, the genetic DAC'04
// baseline and the racing meta-engine — and cross-checks the invariants
// the paper's claim structure rests on. See DESIGN.md, "Differential
// invariant suite", for the invariant inventory and the shrinker contract.
//
// The harness is exposed three ways: the pinned-seed suite
// (TestPinnedSeedDifferential) is the deterministic PR gate, the native
// fuzz targets (FuzzDifferential) explore the shape space coverage-guided,
// and cmd/dfgfuzz drives long soak runs and serializes minimized
// reproducers into testdata/.
package difftest

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/dfgio"
	"repro/internal/genetic"
	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/latency"
	"repro/internal/search"
	"repro/internal/service"
)

// model is the shared latency model every engine run costs under — the
// same default the serving layer uses, so the harness checks the
// configuration production traffic sees.
var model = latency.Default()

// Config selects what one differential check runs.
type Config struct {
	// MaxIn, MaxOut and NISE are the architectural constraints handed to
	// every engine.
	MaxIn, MaxOut, NISE int
	// Engines is the registry-name subset to run (nil = EnginesAll).
	Engines []string
	// ParWorkers is the worker count of the "par" arm (Limits.Workers
	// for K-L, Limits.SubtreeWorkers for the exact searches). Values
	// below 2 disable the parallel-determinism arm.
	ParWorkers int
	// GeneticOpt overrides the genetic baseline's evolution parameters.
	// nil uses FastGeneticOpt — the real engine with a smaller
	// population, so the 500-block gate fits its CI budget. The soak CLI
	// can restore the registry defaults with -full-ga.
	GeneticOpt *genetic.Options
	// Budget bounds the exact searches (0 = search.DefaultBudget).
	Budget int64
	// SkipCache skips the CostCache-on/off agreement arm.
	SkipCache bool
	// SkipRoundTrip skips the dfgio print→parse→hash arm.
	SkipRoundTrip bool
}

// EnginesAll is every engine the differential matrix covers. "iterative"
// rides along: it is subject to the same validity and dominance
// invariants as the other heuristic-quality answers.
var EnginesAll = []string{"isegen", "exact", "iterative", "genetic", "racing"}

// DefaultConfig is the full matrix under the paper's main I/O constraint.
func DefaultConfig() Config {
	return Config{MaxIn: 4, MaxOut: 2, NISE: 2, Engines: EnginesAll, ParWorkers: 3}
}

// FastGeneticOpt returns reduced evolution parameters: the identical code
// path (selection, crossover, penalty fitness, freezing), ~20× cheaper.
// Every invariant the harness checks is parameter-independent — a smaller
// population may find worse cuts, never invalid ones, and dominance
// (exact ≥ genetic) holds for any population.
func FastGeneticOpt() *genetic.Options {
	return &genetic.Options{Pop: 24, MaxGen: 40, Stall: 10}
}

// Violation is one invariant breach on one block. Detail is
// human-readable; the reproducer writer records it alongside the block.
type Violation struct {
	// Invariant names the breached invariant: "validity", "dominance",
	// "racing-equivalence", "par-determinism", "cache-agreement",
	// "round-trip", "stream-determinism" or "error".
	Invariant string
	// Engine is the registry name of the engine involved (empty for
	// engine-independent invariants like round-trip).
	Engine string
	// Detail describes the breach.
	Detail string
}

func (v Violation) String() string {
	if v.Engine == "" {
		return fmt.Sprintf("[%s] %s", v.Invariant, v.Detail)
	}
	return fmt.Sprintf("[%s/%s] %s", v.Invariant, v.Engine, v.Detail)
}

// limits assembles the per-run limits for one engine arm.
func (c Config) limits(par bool) *search.Limits {
	budget := c.Budget
	if budget == 0 {
		budget = search.DefaultBudget
	}
	lim := &search.Limits{
		MaxIn: c.MaxIn, MaxOut: c.MaxOut, NISE: c.NISE,
		Budget: budget, Workers: 1, SubtreeWorkers: 1,
	}
	if par {
		lim.Workers = c.ParWorkers
		lim.SubtreeWorkers = c.ParWorkers
	}
	return lim
}

// newEngine builds one registry engine with the harness's genetic
// parameters applied.
func (c Config) newEngine(name string, cache *search.CostCache) (search.Engine, error) {
	eng, err := search.New(name, cache)
	if err != nil {
		return nil, err
	}
	if g, ok := eng.(*search.Genetic); ok {
		gopt := c.GeneticOpt
		if gopt == nil {
			gopt = FastGeneticOpt()
		}
		g.Opt = gopt
	}
	return eng, nil
}

// runResult is one engine arm's outcome.
type runResult struct {
	cuts    []*core.Cut
	stats   search.Stats
	err     error
	skipped bool // recognized resource refusal, not a violation
}

// runEngine executes one arm. Engine errors are violations unless they are
// the documented resource refusals (node limit, budget), which skip the
// block for that engine.
func (c Config) runEngine(name string, blk *ir.Block, cache *search.CostCache, par bool) runResult {
	eng, err := c.newEngine(name, cache)
	if err != nil {
		return runResult{err: err}
	}
	obj := search.Merit(model)
	cuts, stats, err := eng.RunContext(context.Background(), blk, obj, c.limits(par))
	return runResult{cuts: cuts, stats: stats, err: err}
}

// CheckBlock runs the full differential matrix on one block and returns
// every invariant violation found. A nil/empty result means the block is
// clean under cfg.
func CheckBlock(blk *ir.Block, cfg Config) []Violation {
	var vs []Violation
	engines := cfg.Engines
	if engines == nil {
		engines = EnginesAll
	}

	if !cfg.SkipRoundTrip {
		vs = append(vs, checkRoundTrip(blk)...)
	}

	seq := make(map[string]runResult, len(engines))
	for _, name := range engines {
		r := cfg.runEngine(name, blk, nil, false)
		r.classify()
		seq[name] = r
		if r.err != nil {
			vs = append(vs, Violation{Invariant: "error", Engine: name, Detail: r.err.Error()})
			continue
		}
		if r.skipped {
			continue
		}
		vs = append(vs, CheckCuts(blk, name+"/seq", r.cuts, cfg.MaxIn, cfg.MaxOut, cfg.NISE)...)

		if cfg.ParWorkers > 1 {
			rp := cfg.runEngine(name, blk, nil, true)
			rp.classify()
			if rp.err != nil {
				vs = append(vs, Violation{Invariant: "error", Engine: name + "/par", Detail: rp.err.Error()})
			} else if d := diffCuts(r.cuts, rp.cuts); d != "" {
				vs = append(vs, Violation{Invariant: "par-determinism", Engine: name,
					Detail: fmt.Sprintf("workers=1 vs workers=%d: %s", cfg.ParWorkers, d)})
			}
		}

		if !cfg.SkipCache {
			rc := cfg.runEngine(name, blk, search.NewCostCache(), false)
			if rc.err != nil {
				vs = append(vs, Violation{Invariant: "error", Engine: name + "/cache", Detail: rc.err.Error()})
			} else if d := diffCuts(r.cuts, rc.cuts); d != "" {
				vs = append(vs, Violation{Invariant: "cache-agreement", Engine: name,
					Detail: "CostCache on vs off: " + d})
			}
		}
	}

	vs = append(vs, checkDominance(seq)...)
	vs = append(vs, checkRacingEquivalence(seq)...)
	return vs
}

// classify folds the documented resource refusals into skips.
func (r *runResult) classify() {
	if r.err == nil {
		return
	}
	if search.IsResourceRefusal(r.err) {
		r.skipped, r.err = true, nil
	}
}

// refMetrics recomputes a cut's metrics from scratch — the reference
// oracle every recorded field is compared against.
func refMetrics(blk *ir.Block, cut *graph.BitSet) core.Metrics {
	return core.MetricsOf(blk, model, cut)
}

// CheckCuts validates one engine answer against the structural invariants:
// every cut non-empty, within the block, free of forbidden ops, convex,
// inside the I/O port constraints, mutually disjoint, at most NISE cuts,
// and carrying recorded metrics that match a from-scratch recomputation.
func CheckCuts(blk *ir.Block, arm string, cuts []*core.Cut, maxIn, maxOut, nise int) []Violation {
	var vs []Violation
	add := func(format string, args ...any) {
		vs = append(vs, Violation{Invariant: "validity", Engine: arm, Detail: fmt.Sprintf(format, args...)})
	}
	if len(cuts) > nise {
		add("%d cuts exceed NISE=%d", len(cuts), nise)
	}
	union := graph.NewBitSet(blk.N())
	for k, cut := range cuts {
		if cut == nil || cut.Nodes == nil || cut.Nodes.Empty() {
			add("cut %d is empty", k)
			continue
		}
		if cut.Nodes.Cap() != blk.N() {
			add("cut %d: node-set capacity %d, block has %d nodes", k, cut.Nodes.Cap(), blk.N())
			continue
		}
		if union.Intersects(cut.Nodes) {
			add("cut %d overlaps an earlier cut (cuts must be disjoint)", k)
		}
		union.Or(cut.Nodes)
		cut.Nodes.ForEach(func(i int) bool {
			if blk.ForbiddenInCut(i) {
				add("cut %d contains forbidden node %d (%v)", k, i, blk.Nodes[i].Op)
			}
			return true
		})
		m := refMetrics(blk, cut.Nodes)
		if !m.Convex() {
			add("cut %d %v is not convex (%d violators)", k, cut.Nodes.Elems(), m.NViol)
		}
		if m.NumIn > maxIn {
			add("cut %d has %d inputs > INmax=%d", k, m.NumIn, maxIn)
		}
		if m.NumOut > maxOut {
			add("cut %d has %d outputs > OUTmax=%d", k, m.NumOut, maxOut)
		}
		if cut.NumIn != m.NumIn || cut.NumOut != m.NumOut {
			add("cut %d records I/O (%d,%d), reference says (%d,%d)", k, cut.NumIn, cut.NumOut, m.NumIn, m.NumOut)
		}
		if cut.SWLat != m.SWLat {
			add("cut %d records SWLat %d, reference says %d", k, cut.SWLat, m.SWLat)
		}
		if math.Float64bits(cut.HWLat) != math.Float64bits(m.HWLat) {
			add("cut %d records HWLat %v, reference says %v", k, cut.HWLat, m.HWLat)
		}
	}
	return vs
}

// refTotalMerit sums the reference-recomputed merit of an answer — the
// quantity dominance compares, deliberately not trusting the engines'
// recorded fields.
func refTotalMerit(blk *ir.Block, cuts []*core.Cut) float64 {
	t := 0.0
	for _, c := range cuts {
		t += refMetrics(blk, c.Nodes).Merit()
	}
	return t
}

// meritEps absorbs float comparison of merits. Merits are sums of
// integer-valued floats, so any honest violation is ≥ 1; the epsilon only
// guards against representation noise.
const meritEps = 1e-9

// checkDominance enforces the paper's ordering: the exact joint optimum
// dominates every heuristic answer on the same block.
func checkDominance(seq map[string]runResult) []Violation {
	exact, ok := seq["exact"]
	if !ok || exact.err != nil || exact.skipped {
		return nil
	}
	blk := blkOf(exact.cuts)
	if blk == nil {
		// The exact optimum is the empty answer (no positive-merit cut
		// exists); heuristics returning cuts anyway are caught by the
		// per-engine comparison below only if we know the block, so
		// fall back to any heuristic's block pointer.
		for _, name := range []string{"isegen", "iterative", "genetic"} {
			if r, ok := seq[name]; ok && blkOf(r.cuts) != nil {
				blk = blkOf(r.cuts)
				break
			}
		}
	}
	var vs []Violation
	exactMerit := 0.0
	if blk != nil {
		exactMerit = refTotalMerit(blk, exact.cuts)
	}
	for _, name := range []string{"isegen", "iterative", "genetic"} {
		r, ok := seq[name]
		if !ok || r.err != nil || r.skipped || len(r.cuts) == 0 {
			continue
		}
		hm := refTotalMerit(blkOf(r.cuts), r.cuts)
		if hm > exactMerit+meritEps {
			vs = append(vs, Violation{Invariant: "dominance", Engine: name,
				Detail: fmt.Sprintf("heuristic merit %g exceeds exact optimum %g", hm, exactMerit)})
		}
	}
	return vs
}

// blkOf returns the block an answer belongs to (nil for empty answers).
func blkOf(cuts []*core.Cut) *ir.Block {
	if len(cuts) == 0 {
		return nil
	}
	return cuts[0].Block
}

// checkRacingEquivalence enforces the racing engine's contract: an
// undeadlined racing answer is bit-identical to the exact engine's.
func checkRacingEquivalence(seq map[string]runResult) []Violation {
	racing, ok := seq["racing"]
	if !ok || racing.err != nil || racing.skipped {
		return nil
	}
	exact, ok := seq["exact"]
	if !ok || exact.err != nil || exact.skipped {
		return nil
	}
	if !racing.stats.Optimal {
		return []Violation{{Invariant: "racing-equivalence", Engine: "racing",
			Detail: "undeadlined racing run reported Optimal=false"}}
	}
	if d := diffCuts(exact.cuts, racing.cuts); d != "" {
		return []Violation{{Invariant: "racing-equivalence", Engine: "racing",
			Detail: "racing vs exact: " + d}}
	}
	return nil
}

// diffCuts compares two answers for bit-identity: same cut count, and per
// index identical node sets and identical recorded metrics (HWLat compared
// by float bits). Returns "" when equal, else a description.
func diffCuts(a, b []*core.Cut) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%d cuts vs %d cuts", len(a), len(b))
	}
	for k := range a {
		ca, cb := a[k], b[k]
		if !ca.Nodes.Equal(cb.Nodes) {
			return fmt.Sprintf("cut %d node sets differ: %v vs %v", k, ca.Nodes.Elems(), cb.Nodes.Elems())
		}
		if ca.NumIn != cb.NumIn || ca.NumOut != cb.NumOut || ca.SWLat != cb.SWLat ||
			math.Float64bits(ca.HWLat) != math.Float64bits(cb.HWLat) {
			return fmt.Sprintf("cut %d metrics differ: (%d,%d,%d,%v) vs (%d,%d,%d,%v)",
				k, ca.NumIn, ca.NumOut, ca.SWLat, ca.HWLat, cb.NumIn, cb.NumOut, cb.SWLat, cb.HWLat)
		}
	}
	return ""
}

// checkRoundTrip enforces the dfgio contract on the block: print→parse
// reproduces an equal structure, BlockHash survives the round trip, and
// renaming (block name, node labels, frequency) never moves the hash.
func checkRoundTrip(blk *ir.Block) []Violation {
	var vs []Violation
	add := func(format string, args ...any) {
		vs = append(vs, Violation{Invariant: "round-trip", Detail: fmt.Sprintf(format, args...)})
	}
	h := dfgio.BlockHash(blk)
	var buf bytes.Buffer
	if err := dfgio.Write(&buf, blk); err != nil {
		add("Write failed: %v", err)
		return vs
	}
	parsed, err := dfgio.Parse(bytes.NewReader(buf.Bytes()))
	if err != nil {
		add("Parse of Write output failed: %v\n%s", err, buf.String())
		return vs
	}
	if d := diffBlocks(blk, parsed); d != "" {
		add("print→parse changed the block: %s", d)
	}
	if h2 := dfgio.BlockHash(parsed); h2 != h {
		add("BlockHash changed across print→parse: %s vs %s", h, h2)
	}
	// Renaming invariance: the hash covers structure only.
	renamed := *parsed
	renamed.Name = parsed.Name + "-renamed"
	renamed.Freq = parsed.Freq * 7
	renamed.Nodes = append([]ir.Node(nil), parsed.Nodes...)
	for i := range renamed.Nodes {
		renamed.Nodes[i].Name = fmt.Sprintf("lbl%d", i)
	}
	if h3 := dfgio.BlockHash(&renamed); h3 != h {
		add("BlockHash moved under renaming: %s vs %s", h, h3)
	}
	return vs
}

// diffBlocks compares the serializable structure of two blocks. Returns ""
// when equal.
func diffBlocks(a, b *ir.Block) string {
	if a.Name != b.Name {
		return fmt.Sprintf("name %q vs %q", a.Name, b.Name)
	}
	if a.Freq != b.Freq {
		return fmt.Sprintf("freq %g vs %g", a.Freq, b.Freq)
	}
	if a.NumInputs != b.NumInputs {
		return fmt.Sprintf("inputs %d vs %d", a.NumInputs, b.NumInputs)
	}
	if len(a.Nodes) != len(b.Nodes) {
		return fmt.Sprintf("%d nodes vs %d nodes", len(a.Nodes), len(b.Nodes))
	}
	for i := range a.Nodes {
		na, nb := &a.Nodes[i], &b.Nodes[i]
		if na.Op != nb.Op || na.Imm != nb.Imm || len(na.Args) != len(nb.Args) {
			return fmt.Sprintf("node %d differs: %v vs %v", i, *na, *nb)
		}
		for j := range na.Args {
			if na.Args[j] != nb.Args[j] {
				return fmt.Sprintf("node %d arg %d differs: %v vs %v", i, j, na.Args[j], nb.Args[j])
			}
		}
		if a.LiveOut.Has(i) != b.LiveOut.Has(i) {
			return fmt.Sprintf("node %d live-out differs", i)
		}
	}
	return ""
}

// CheckApplicationStream runs the serving layer's full NDJSON path on a
// multi-block application under the named algo, once sequentially and once
// with parallel block fan-out, and requires the streams byte-identical.
// The racing algo is excluded by contract: its frontier records interleave
// nondeterministically (engine-level equivalence is checked per block
// instead).
func CheckApplicationStream(app *ir.Application, algo string, parWorkers int) []Violation {
	p := service.DefaultParams()
	p.Algo = algo
	p.Reuse = algo == "isegen"
	p.NISE = 2
	seqStream, err := runStream(app, p, 1)
	if err != nil {
		return []Violation{{Invariant: "error", Engine: algo + "/stream", Detail: err.Error()}}
	}
	parStream, err := runStream(app, p, parWorkers)
	if err != nil {
		return []Violation{{Invariant: "error", Engine: algo + "/stream-par", Detail: err.Error()}}
	}
	if !bytes.Equal(seqStream, parStream) {
		return []Violation{{Invariant: "stream-determinism", Engine: algo,
			Detail: fmt.Sprintf("workers=1 and workers=%d streams differ:\n--- seq ---\n%s--- par ---\n%s",
				parWorkers, seqStream, parStream)}}
	}
	return nil
}

// runStream encodes one service.Run as NDJSON bytes.
func runStream(app *ir.Application, p service.Params, workers int) ([]byte, error) {
	p.Workers = workers
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	err := service.Run(context.Background(), app, p, nil, func(v any) error { return enc.Encode(v) })
	return buf.Bytes(), err
}
