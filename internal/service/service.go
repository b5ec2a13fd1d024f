// Package service is the serving layer over the unified search engine:
// it turns the one-shot ISE-selection flow into jobs a long-lived daemon
// (cmd/isegend) executes — bounded FIFO queueing with per-tenant worker
// budgets (queue.go), HTTP upload/streaming endpoints (server.go), and a
// persistent cut-costing cache shared across uploads and restarts
// (search.NewPersistentCostCache).
//
// The wire contract is deterministic: a job's NDJSON stream — one
// BlockResult record per basic block in ascending block order, then one
// Summary record — is bit-identical to what `cmd/isegen -json` produces
// offline for the same input and parameters, for every worker count and
// cache state. Run is that single shared execution path; both the daemon
// and the offline tool call it, so served and offline results are always
// diffable. Nothing nondeterministic (timing, cache statistics, tenant
// identity) appears in the stream; that lives on the metrics endpoint.
package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	isegen "repro"
	"repro/internal/core"
	"repro/internal/dfgio"
	"repro/internal/fault"
	"repro/internal/ir"
	"repro/internal/latency"
	"repro/internal/obs"
	"repro/internal/search"
)

// defaultModel is the one latency model every job runs under. Sharing the
// pointer (rather than minting one per job) keeps the cost cache's
// pointer-keyed fast path and fingerprint memo effective across jobs; the
// values are identical either way, so results are unaffected.
var defaultModel = latency.Default()

// Params selects the algorithm and constraints of one job. The zero value
// is not valid; start from DefaultParams.
type Params struct {
	// Algo is a search-engine registry name ("isegen", "exact",
	// "iterative", "genetic", "racing"). "isegen" runs the paper's
	// application-level greedy flow; the baselines run per block.
	// "racing" races K-L and the genetic baseline against the exact
	// engine per block, streaming anytime/optimal frontier records
	// (see RaceFrontierRecord).
	Algo string `json:"algo"`
	// MaxIn and MaxOut are the register-file port constraints.
	MaxIn  int `json:"max_in"`
	MaxOut int `json:"max_out"`
	// NISE is the AFU budget. For per-block baselines it applies per
	// block, as in the paper's Figure 4 protocol.
	NISE int `json:"nise"`
	// Seed makes the genetic baseline repeatable.
	Seed int64 `json:"seed"`
	// Workers bounds the job's worker pool (0 = one per CPU core).
	// Results are bit-identical for every value.
	Workers int `json:"workers"`
	// SubtreeWorkers bounds the in-block branch-and-bound pool of the
	// exact engines ("exact", "iterative" only): w > 1 splits each
	// block's decision tree into subtree tasks pruned against a shared
	// best-bound, so one hot block no longer pins the job to a single
	// core. 0 and 1 keep the single-threaded search; -1 selects one
	// worker per CPU core. Runs that complete within the search budget
	// are bit-identical for every value (a run near the budget boundary
	// may exhaust the shared budget only in parallel — see
	// exact.Options.Budget).
	SubtreeWorkers int `json:"subtree_workers,omitempty"`
	// MaxFrontier bounds the Pareto frontier accumulated under
	// objective "pareto" (0 = unbounded): the lowest-ranked point is
	// evicted deterministically when the bound would be exceeded, so a
	// huge application cannot grow the frontier record without bound.
	MaxFrontier int `json:"max_frontier,omitempty"`
	// Reuse enables reuse-aware scoring and instance claiming ("isegen"
	// only; baselines count each cut once).
	Reuse bool `json:"reuse"`
	// Objective selects the scoring objective by registry name
	// ("merit", "reuse", "area", "energy", "latency", "class",
	// "pareto"). Empty keeps the legacy default — reuse-aware scoring
	// when Reuse, merit otherwise — and the unextended stream schema, so
	// pre-objective clients see bit-identical output. An explicit
	// objective extends each Selection with its objective vector;
	// "pareto" additionally emits a "frontier" record. Engines other
	// than "isegen" optimize merit internally and accept only "merit".
	Objective string `json:"objective,omitempty"`
	// GatePenalty is the "area" objective's merit discount per NAND2
	// gate (0 selects the default).
	GatePenalty float64 `json:"gate_penalty,omitempty"`
	// LatencyBudget is the "latency" objective's bound on AFU cycles
	// per ISE (required positive for that objective).
	LatencyBudget int `json:"latency_budget,omitempty"`
	// ClassWeights maps block classes ("memory", "compute") to merit
	// multipliers for the "class" objective.
	ClassWeights map[string]float64 `json:"class_weights,omitempty"`
	// Deadline bounds each block's race wall-clock time ("racing" only;
	// 0 = none; nanoseconds in JSON, a Go duration string in the query
	// parameter and CLI flag). On expiry the racer cancels the in-flight
	// searches and the block record carries the best anytime answer
	// found so far instead of the proven optimum — so a deadlined
	// stream's selections are timing-dependent, unlike every other
	// stream this package emits.
	Deadline time.Duration `json:"deadline,omitempty"`
}

// DefaultParams returns the paper's main configuration: ISEGEN with reuse,
// I/O (4,2), 4 AFUs.
func DefaultParams() Params {
	return Params{Algo: "isegen", MaxIn: 4, MaxOut: 2, NISE: 4, Seed: 1, Reuse: true}
}

// Validate rejects parameter combinations no engine can run — including
// objective/engine pairs the merit-only baselines cannot honor, so the
// mismatch surfaces as one clear error up front instead of deep inside an
// engine's objective check.
func (p Params) Validate() error {
	if _, err := search.New(p.Algo, nil); err != nil {
		return err
	}
	if p.MaxIn < 1 || p.MaxOut < 1 || p.NISE < 1 {
		return fmt.Errorf("service: in/out/nise must be positive (got %d/%d/%d)", p.MaxIn, p.MaxOut, p.NISE)
	}
	if p.GatePenalty < 0 || math.IsNaN(p.GatePenalty) || math.IsInf(p.GatePenalty, 0) {
		return fmt.Errorf("service: gate_penalty must be finite and non-negative (got %g)", p.GatePenalty)
	}
	if p.Objective != "" && !slices.Contains(search.ObjectiveNames(), p.Objective) {
		return fmt.Errorf("service: unknown objective %q (have %v)", p.Objective, search.ObjectiveNames())
	}
	if p.Objective != "" && p.Algo != "isegen" && p.Objective != "merit" {
		return fmt.Errorf(
			"service: engine %q optimizes merit internally and cannot honor objective %q; valid pairs: objective \"merit\" with any algo (%v), every other objective (%v) with algo \"isegen\" only",
			p.Algo, p.Objective, search.Names(), search.ObjectiveNames())
	}
	if p.Objective == "latency" && p.LatencyBudget <= 0 {
		return fmt.Errorf("service: objective \"latency\" needs a positive latency_budget (got %d)", p.LatencyBudget)
	}
	// An objective knob set for an objective that does not read it would
	// be silently dropped; reject the mismatch instead, symmetrically
	// with the objective/engine pairing above.
	if p.SubtreeWorkers < -1 {
		return fmt.Errorf("service: subtree_workers must be >= -1 (got %d; -1 = one per CPU core)", p.SubtreeWorkers)
	}
	if p.MaxFrontier < 0 {
		return fmt.Errorf("service: max_frontier must be non-negative (got %d)", p.MaxFrontier)
	}
	if p.SubtreeWorkers != 0 && p.Algo != "exact" && p.Algo != "iterative" && p.Algo != "racing" {
		return fmt.Errorf("service: subtree_workers is only read by the exact engines (\"exact\", \"iterative\", \"racing\"; algo is %q)", p.Algo)
	}
	if p.Deadline < 0 {
		return fmt.Errorf("service: deadline must be non-negative (got %v)", p.Deadline)
	}
	if p.Deadline != 0 && p.Algo != "racing" {
		return fmt.Errorf("service: deadline is only read by algo \"racing\" (algo is %q); the other engines run to completion", p.Algo)
	}
	if p.MaxFrontier != 0 && p.Objective != "pareto" {
		return fmt.Errorf("service: max_frontier is only read by objective \"pareto\" (objective is %q)", orDefault(p.Objective))
	}
	if p.GatePenalty != 0 && p.Objective != "area" {
		return fmt.Errorf("service: gate_penalty is only read by objective \"area\" (objective is %q)", orDefault(p.Objective))
	}
	if p.LatencyBudget != 0 && p.Objective != "latency" {
		return fmt.Errorf("service: latency_budget is only read by objective \"latency\" (objective is %q)", orDefault(p.Objective))
	}
	if len(p.ClassWeights) != 0 && p.Objective != "class" {
		return fmt.Errorf("service: class_weights are only read by objective \"class\" (objective is %q)", orDefault(p.Objective))
	}
	return nil
}

// orDefault names the empty objective for error messages.
func orDefault(objective string) string {
	if objective == "" {
		return "default"
	}
	return objective
}

// blockClasses are the classes the default classifier (search.BlockClass)
// can produce — the only classifier reachable through the CLI and the
// server, so any other class name in a weight list is a typo that would
// silently weigh nothing.
var blockClasses = []string{"compute", "memory"}

// ParseClassWeights parses the "class=weight,class=weight" form the CLI
// flag and the class_weights query parameter share (e.g.
// "memory=0.5,compute=2"). Class names must be ones the default block
// classifier produces (see blockClasses). An empty string yields a nil
// map.
func ParseClassWeights(s string) (map[string]float64, error) {
	if s == "" {
		return nil, nil
	}
	out := map[string]float64{}
	for _, part := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(part, "=")
		name, val = strings.TrimSpace(name), strings.TrimSpace(val)
		if !ok || name == "" {
			return nil, fmt.Errorf("service: class weight %q not in class=weight form", part)
		}
		if !slices.Contains(blockClasses, name) {
			return nil, fmt.Errorf("service: unknown block class %q (have %v)", name, blockClasses)
		}
		w, err := strconv.ParseFloat(val, 64)
		if err != nil || w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("service: class weight %q needs a finite non-negative number (got %q)", name, val)
		}
		out[name] = w
	}
	return out, nil
}

// Instance is one claimed occurrence of an ISE.
type Instance struct {
	Block int   `json:"block"`
	Nodes []int `json:"nodes"`
}

// ObjectiveVector is a cut's score on every objective axis in the wire
// schema: merit and energy are maximized, area (NAND2-equivalent gates) is
// minimized. It mirrors search.Vector.
type ObjectiveVector struct {
	Merit  float64 `json:"merit"`
	Area   float64 `json:"area"`
	Energy float64 `json:"energy"`
}

// Selection is one identified ISE in the result stream. ISE numbers are
// global (1-based) in selection order, so offline and served runs are
// diffable line by line.
type Selection struct {
	ISE       int        `json:"ise"`
	Nodes     []int      `json:"nodes"`
	NumIn     int        `json:"num_in"`
	NumOut    int        `json:"num_out"`
	SWLat     int        `json:"sw_lat"`
	HWCycles  int        `json:"hw_cycles"`
	Merit     float64    `json:"merit"`
	Instances []Instance `json:"instances"`
	// Objectives is the cut's objective vector, present only when the
	// job named an explicit objective (Params.Objective non-empty) — the
	// default stream is bit-identical to the pre-objective schema.
	Objectives *ObjectiveVector `json:"objectives,omitempty"`
}

// BlockResult is one NDJSON record: every selection whose cut was
// identified in this block (instances may span other blocks). Exactly one
// record is emitted per block, in ascending block order, including blocks
// with no selections — the stream shape is a pure function of the input.
type BlockResult struct {
	Type  string `json:"type"` // "block"
	Block int    `json:"block"`
	Name  string `json:"name"`
	// Hash is the canonical content hash of the block (dfgio.BlockHash),
	// the key under which its cut costings persist.
	Hash string `json:"hash"`
	// Skipped explains why a per-block engine did not run on this block
	// (e.g. it exceeds the engine's node limit); empty otherwise.
	Skipped    string      `json:"skipped,omitempty"`
	Selections []Selection `json:"selections"`
}

// Summary is the final NDJSON record: the whole-application quality
// report. It deliberately carries no timing or cache statistics — those
// are nondeterministic and live on the metrics endpoint instead.
type Summary struct {
	Type         string  `json:"type"` // "summary"
	Algo         string  `json:"algo"`
	Blocks       int     `json:"blocks"`
	ISEs         int     `json:"ises"`
	Instances    int     `json:"instances"`
	Speedup      float64 `json:"speedup"`
	Coverage     float64 `json:"coverage"`
	StaticBefore int     `json:"static_before"`
	StaticAfter  int     `json:"static_after"`
	EnergyRatio  float64 `json:"energy_ratio"`
}

// FrontierPoint is one non-dominated candidate in a "frontier" record.
type FrontierPoint struct {
	// Block is the index of the block the candidate was identified in.
	Block int `json:"block"`
	// Nodes is the candidate's node set.
	Nodes []int `json:"nodes"`
	// Objectives is the candidate's score on every axis.
	Objectives ObjectiveVector `json:"objectives"`
	// Selected marks candidates the drive actually picked; the rest are
	// the trade-offs it left on the table.
	Selected bool `json:"selected"`
}

// FrontierRecord is the NDJSON record emitted between the block records
// and the summary for multi-objective jobs (objective "pareto"): the
// cumulative Pareto frontier of the candidates the search examined, in
// deterministic order (best merit first, then smaller area, then higher
// energy). Streams of scalar-objective jobs never carry it, so the
// extension is backward-compatible.
type FrontierRecord struct {
	Type   string          `json:"type"` // "frontier"
	Points []FrontierPoint `json:"points"`
}

// RaceFrontierRecord is the NDJSON record the racing engine streams as its
// racers publish answers for a block: each heuristic answer marked
// "anytime" the moment it lands, then the exact search's proven answer
// marked "optimal". Records for one block are strictly merit-monotone, so
// a latency-sensitive consumer can act on the first record and only ever
// trade quality for time. Unlike every other record in the stream, WHEN
// (and, under a deadline, whether) each record appears is timing-dependent
// — the deterministic wire contract covers the block records and the
// summary, which for undeadlined racing runs stay bit-identical to algo
// "exact". It shares the "frontier" type tag with FrontierRecord (both are
// trade-off surfaces); the "stage" field tells them apart.
type RaceFrontierRecord struct {
	Type  string `json:"type"`  // "frontier"
	Stage string `json:"stage"` // "anytime" | "optimal"
	// Engine is the racer that published ("ISEGEN", "Genetic" or
	// "Exact").
	Engine string `json:"engine"`
	// Block is the index of the block being raced.
	Block int `json:"block"`
	// Merit is the summed merit of Cuts.
	Merit float64 `json:"merit"`
	// Cuts holds the published answer's node sets. The full costing
	// (I/O, latencies, instances) appears in the block's final record;
	// the in-flight record carries just enough to act on.
	Cuts [][]int `json:"cuts"`
}

// ErrorRecord terminates a stream that failed mid-job (the HTTP status is
// already committed by then).
type ErrorRecord struct {
	Type  string `json:"type"` // "error"
	Error string `json:"error"`
}

// raceRecord converts one racing publication into its wire record.
func raceRecord(block int, ev search.RaceEvent) *RaceFrontierRecord {
	cuts := make([][]int, 0, len(ev.Cuts))
	for _, c := range ev.Cuts {
		cuts = append(cuts, c.Nodes.Elems())
	}
	return &RaceFrontierRecord{
		Type: "frontier", Stage: ev.Stage, Engine: ev.Engine,
		Block: block, Merit: ev.Merit, Cuts: cuts,
	}
}

// NDJSONEmitter returns an emit function writing one JSON record per line
// to w, the encoding both the daemon and `cmd/isegen -json` use.
func NDJSONEmitter(w io.Writer) func(v any) error {
	enc := json.NewEncoder(w)
	return func(v any) error { return enc.Encode(v) }
}

// Run executes one selection job over the application and emits the
// deterministic result stream: one *BlockResult per block in ascending
// block order, then one *Summary. The per-block baselines stream each
// block's record as soon as the block completes (held back only as needed
// to preserve order); the application-level ISEGEN flow emits after its
// greedy drive finishes, since every round depends on the previous one.
// Algo "racing" additionally interleaves *RaceFrontierRecords as its
// racers publish — the one deliberately timing-dependent part of the
// stream; the block records and summary of an undeadlined racing run stay
// deterministic (and bit-identical in content to algo "exact").
// Cancellation aborts the search and returns ctx.Err(); emit errors
// (client disconnects) abort the fan-out and are returned as-is.
func Run(ctx context.Context, app *ir.Application, p Params, cache *search.CostCache, emit func(v any) error) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if p.Algo == "isegen" {
		return runApplication(ctx, app, p, cache, emit)
	}
	return runPerBlock(ctx, app, p, cache, emit)
}

// runApplication is the paper's flow: the application-level greedy drive
// (scored by p.Objective; reuse-aware claiming when p.Reuse), then
// grouping of the selections by block. An explicit objective extends each
// selection with its objective vector; "pareto" adds a frontier record.
func runApplication(ctx context.Context, app *ir.Application, p Params, cache *search.CostCache, emit func(v any) error) error {
	cfg := core.DefaultConfig()
	cfg.MaxIn, cfg.MaxOut, cfg.NISE, cfg.Workers = p.MaxIn, p.MaxOut, p.NISE, p.Workers
	cfg.Model = defaultModel

	op := isegen.ObjectiveParams{
		GatePenalty: p.GatePenalty, LatencyBudget: p.LatencyBudget,
		ClassWeights: p.ClassWeights, MaxFrontier: p.MaxFrontier,
	}
	var sels []isegen.Selection
	var frontier *search.Frontier
	if p.Reuse {
		res, err := isegen.GenerateWithObjectiveContext(ctx, app, cfg, p.Objective, op, cache)
		if err != nil {
			return err
		}
		sels, frontier = res.Selections, res.Frontier
	} else {
		cuts, fr, err := isegen.GenerateCutsOnlyWithObjectiveContext(ctx, app, cfg, p.Objective, op, cache)
		if err != nil {
			return err
		}
		sels, frontier = singleInstanceSelections(app, cuts), fr
	}

	blockIdx := blockIndex(app)
	perBlock := make([][]Selection, len(app.Blocks))
	for i, sel := range sels {
		bi := blockIdx[sel.Cut.Block]
		perBlock[bi] = append(perBlock[bi], toSelection(i+1, sel, p.Objective != ""))
	}
	for bi, blk := range app.Blocks {
		if err := emit(blockResult(bi, blk, "", perBlock[bi])); err != nil {
			return err
		}
	}
	if frontier != nil {
		if err := emit(frontierRecord(frontier)); err != nil {
			return err
		}
	}
	return emitSummary(app, p, sels, emit)
}

// runPerBlock fans a per-block engine out over the blocks on the job's
// worker pool and streams each block's record as soon as it — and all
// earlier blocks — completed. Blocks beyond the engine's node limit are
// skipped (with a note in the record) rather than failing the job, so one
// oversized block doesn't poison an application sweep.
//
// For algo "racing" the stream additionally carries RaceFrontierRecords,
// emitted the moment a racer publishes — concurrently with (and therefore
// interleaved nondeterministically between) the ordered block records; a
// mutex serializes the writes so every line stays a whole record.
func runPerBlock(ctx context.Context, app *ir.Application, p Params, cache *search.CostCache, emit func(v any) error) error {
	eng, err := search.New(p.Algo, cache)
	if err != nil {
		return err
	}
	if ga, ok := eng.(interface{ SetSeed(int64) }); ok {
		ga.SetSeed(p.Seed)
	}
	obj := search.Merit(defaultModel)
	lim := &search.Limits{
		MaxIn: p.MaxIn, MaxOut: p.MaxOut, NISE: p.NISE,
		NodeLimit: search.DefaultNodeLimit(p.Algo), Budget: search.DefaultBudget,
		Workers: 1, // K-L parallelism lives on the block axis here
		// In-block branch-and-bound fan-out for the exact engines:
		// orthogonal to the block axis, bit-identical results.
		SubtreeWorkers: p.SubtreeWorkers,
		Deadline:       p.Deadline,
	}

	// Frontier records land mid-fan-out from engine goroutines while the
	// loop below emits block records; one mutex keeps the NDJSON lines
	// whole. A failed frontier write (client disconnect) cancels the job
	// and surfaces as the job error below.
	var emitMu sync.Mutex
	var raceEmitErr error
	syncEmit := func(v any) error {
		emitMu.Lock()
		defer emitMu.Unlock()
		return emit(v)
	}

	type blockOut struct {
		cuts    []*core.Cut
		stats   search.Stats
		skipped string
		err     error
	}
	n := len(app.Blocks)
	outs := make([]blockOut, n)
	ready := make([]chan struct{}, n)
	for i := range ready {
		ready[i] = make(chan struct{})
	}
	ictx, cancel := context.WithCancel(ctx)
	defer cancel()
	runner := &search.Runner{Workers: p.Workers, Cache: cache}
	fanErr := make(chan error, 1)
	go func() {
		// The fan-out runs off the queue worker's goroutine, outside its
		// panic recovery; convert a panic into a job error and cancel so
		// the emitter below unblocks instead of waiting on a ready
		// channel that will never close.
		defer func() {
			if r := recover(); r != nil {
				fanErr <- fmt.Errorf("service: job panicked: %v", r)
				cancel()
			}
		}()
		fanErr <- runner.ForEachContext(ictx, n, func(i int) {
			defer close(ready[i])
			defer func() {
				// An engine panic would otherwise leave outs[i] looking
				// like a clean empty block; record the failure for the
				// emitter, then re-raise so containment still applies.
				if r := recover(); r != nil {
					outs[i].err = fmt.Errorf("service: engine panicked: %v", r)
					panic(r)
				}
			}()
			if ft := fault.FromContext(ictx).Check(fault.PointEngineBlock); ft.Firing() {
				// Error-shaped kinds fail the block (and thus the job);
				// Panic exercises the containment above; Stall parks the
				// worker until the deadline or disconnect cancels ictx.
				if err := ft.Error(); err != nil {
					outs[i].err = err
					return
				}
				ft.Apply(ictx)
			}
			blk := app.Blocks[i]
			if lim.NodeLimit > 0 && blk.N() > lim.NodeLimit {
				outs[i].skipped = fmt.Sprintf("block exceeds %s engine node limit (%d > %d)", p.Algo, blk.N(), lim.NodeLimit)
				return
			}
			blockEng := eng
			if _, ok := eng.(*search.Racing); ok {
				// The event callback needs the block index, so each block
				// races on its own (stateless, cheap) engine instance.
				blockEng = &search.Racing{Cache: cache, OnEvent: func(ev search.RaceEvent) {
					if err := syncEmit(raceRecord(i, ev)); err != nil {
						emitMu.Lock()
						if raceEmitErr == nil {
							raceEmitErr = err
						}
						emitMu.Unlock()
						cancel()
					}
				}}
			}
			// RunContext: a cancelled request (client disconnect,
			// shutdown) aborts the engine mid-block instead of waiting
			// for the block to finish.
			bctx, bsp := obs.StartSpan(ictx, obs.KindBlock, blk.Name)
			outs[i].cuts, outs[i].stats, outs[i].err = blockEng.RunContext(bctx, blk, obj, lim)
			bsp.End()
		})
	}()

	raceErr := func() error {
		emitMu.Lock()
		defer emitMu.Unlock()
		return raceEmitErr
	}
	var sels []isegen.Selection
	ise := 0
	for bi := 0; bi < n; bi++ {
		select {
		case <-ready[bi]:
		case <-ictx.Done():
			err := <-fanErr
			if re := raceErr(); re != nil {
				return re // a frontier write failed; that is the root cause
			}
			if err != nil && ctx.Err() == nil {
				return err // fan-out panic, not a caller cancellation
			}
			return ictx.Err()
		}
		out := outs[bi]
		if out.err != nil {
			cancel()
			<-fanErr
			return fmt.Errorf("block %d (%s): %w", bi, app.Blocks[bi].Name, out.err)
		}
		recSels := make([]Selection, 0, len(out.cuts))
		for _, c := range out.cuts {
			ise++
			sel := isegen.Selection{Cut: c, Instances: []isegen.Instance{{BlockIdx: bi, Nodes: c.Nodes}}}
			sels = append(sels, sel)
			recSels = append(recSels, toSelection(ise, sel, p.Objective != ""))
		}
		if err := syncEmit(blockResult(bi, app.Blocks[bi], out.skipped, recSels)); err != nil {
			cancel()
			<-fanErr
			return err
		}
	}
	if err := <-fanErr; err != nil {
		return err
	}
	return emitSummary(app, p, sels, syncEmit)
}

func emitSummary(app *ir.Application, p Params, sels []isegen.Selection, emit func(v any) error) error {
	rep, err := isegen.Evaluate(app, defaultModel, sels)
	if err != nil {
		return err
	}
	instances := 0
	for _, sel := range sels {
		instances += len(sel.Instances)
	}
	// encoding/json rejects NaN/Inf, so a degenerate ratio is reported
	// as 0 rather than failing the stream. Zero-weight applications, the
	// obvious source of 0/0, never get here: dfgio.ParseApplication
	// rejects them and Evaluate refuses them.
	return emit(&Summary{
		Type:         "summary",
		Algo:         p.Algo,
		Blocks:       len(app.Blocks),
		ISEs:         len(sels),
		Instances:    instances,
		Speedup:      finiteOrZero(rep.Speedup),
		Coverage:     finiteOrZero(rep.Coverage),
		StaticBefore: rep.StaticBefore,
		StaticAfter:  rep.StaticAfter,
		EnergyRatio:  finiteOrZero(rep.EnergyAfter / rep.EnergyBefore),
	})
}

func finiteOrZero(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

func blockResult(bi int, blk *ir.Block, skipped string, sels []Selection) *BlockResult {
	if sels == nil {
		sels = []Selection{}
	}
	return &BlockResult{
		Type: "block", Block: bi, Name: blk.Name,
		Hash: dfgio.BlockHash(blk), Skipped: skipped, Selections: sels,
	}
}

// toSelection converts one selection into its wire record. withVector
// attaches the cut's objective vector — set exactly when the job named an
// explicit objective, so default streams keep the pre-objective schema.
func toSelection(ise int, sel isegen.Selection, withVector bool) Selection {
	c := sel.Cut
	insts := make([]Instance, 0, len(sel.Instances))
	for _, inst := range sel.Instances {
		insts = append(insts, Instance{Block: inst.BlockIdx, Nodes: inst.Nodes.Elems()})
	}
	out := Selection{
		ISE: ise, Nodes: c.Nodes.Elems(),
		NumIn: c.NumIn, NumOut: c.NumOut,
		SWLat: c.SWLat, HWCycles: c.HWCyclesInt(), Merit: c.Merit(),
		Instances: insts,
	}
	if withVector {
		v := toVector(search.CutVector(defaultModel, c))
		out.Objectives = &v
	}
	return out
}

func toVector(v search.Vector) ObjectiveVector {
	return ObjectiveVector{Merit: v.Merit, Area: v.Area, Energy: v.Energy}
}

// frontierRecord converts a run's Pareto frontier into its wire record,
// preserving the frontier's deterministic point order.
func frontierRecord(fr *search.Frontier) *FrontierRecord {
	points := make([]FrontierPoint, 0, fr.Len())
	for _, pt := range fr.Points() {
		points = append(points, FrontierPoint{
			Block:      pt.Block,
			Nodes:      pt.Cut.Nodes.Elems(),
			Objectives: toVector(pt.Vector),
			Selected:   pt.Selected,
		})
	}
	return &FrontierRecord{Type: "frontier", Points: points}
}

// singleInstanceSelections converts cuts into Selections counting each
// cut once in its own block (no reuse claiming) — the shape of the
// noreuse ISEGEN flow.
func singleInstanceSelections(app *ir.Application, cuts []*core.Cut) []isegen.Selection {
	blockIdx := blockIndex(app)
	sels := make([]isegen.Selection, 0, len(cuts))
	for _, c := range cuts {
		sels = append(sels, isegen.Selection{
			Cut:       c,
			Instances: []isegen.Instance{{BlockIdx: blockIdx[c.Block], Nodes: c.Nodes}},
		})
	}
	return sels
}

func blockIndex(app *ir.Application) map[*ir.Block]int {
	m := make(map[*ir.Block]int, len(app.Blocks))
	for i, b := range app.Blocks {
		m[b] = i
	}
	return m
}
