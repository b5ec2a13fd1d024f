// Package obs is the search pipeline's instrumentation layer: tracing
// spans, engine-internal counters, and fixed-bucket histograms.
//
// The central type is Recorder. A nil *Recorder is a valid no-op — every
// method nil-checks its receiver — so instrumented code records
// unconditionally and the disabled path costs one predictable branch.
// Hot loops (K-L toggles, branch-and-bound node expansion) do not even
// pay that: they tally into plain integers they already own and flush the
// totals at coarse boundaries (end of a trajectory, end of a search), so
// the per-iteration cost of observability is a register increment whether
// recording is on or off.
//
// The enabled path must not perturb results. Nothing a Recorder does
// feeds back into search decisions: counters are write-only from the
// engines' perspective, spans only read the clock, and the context
// plumbing adds values without touching cancellation. The determinism
// tests pin this by running the full service pipeline with recording on
// and off and requiring byte-identical output streams.
//
// Spans land in a fixed-size ring buffer (per job, not global), so a
// pathological run cannot grow memory without bound: once the ring wraps,
// the oldest spans are overwritten and counted in Dropped. Timestamps are
// nanoseconds on the monotonic clock since the recorder's creation, so
// they order correctly across goroutines and survive wall-clock jumps.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span kinds, from the outside of the pipeline in: a job covers one
// request (or one CLI invocation), queue covers submit-to-run wait,
// block covers one basic block's search, engine covers one search-engine
// run, search covers one exact branch-and-bound invocation, trajectory
// covers one K-L restart, and subtree covers one parallel branch-and-
// bound prefix task.
const (
	KindJob        = "job"
	KindQueue      = "queue"
	KindBlock      = "block"
	KindEngine     = "engine"
	KindSearch     = "search"
	KindTrajectory = "trajectory"
	KindSubtree    = "subtree"
)

// DefaultSpanCap is the default span ring capacity. It matches the exact
// engine's subtree-task bound, so even a fully fanned-out search cannot
// wrap the ring with subtree spans alone.
const DefaultSpanCap = 4096

// SpanID identifies a span within one Recorder. 0 means "no span" and is
// what every nil-safe operation returns on the disabled path.
type SpanID uint64

// Span is one recorded interval. Start/End are nanoseconds on the
// monotonic clock since the recorder's epoch; End is 0 while the span is
// open. Parent links spans into the job → block → engine →
// trajectory/subtree tree.
type Span struct {
	ID      SpanID `json:"id"`
	Parent  SpanID `json:"parent,omitempty"`
	Kind    string `json:"kind"`
	Name    string `json:"name,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// Counter names one engine-internal tally. The inventory is fixed at
// compile time so snapshots are plain arrays (no map churn on the flush
// path) and the Prometheus family names are stable.
type Counter int

const (
	// K-L heuristic (internal/core).
	KLToggles         Counter = iota // node moves applied across trajectories
	KLProbes                         // candidate probe digests rebuilt (equals KLGainCacheMisses)
	KLCPFullSweeps                   // SetCut critical-path relabel sweeps (Toggle updates incrementally)
	KLGainRebuilds                   // incremental gain-context rebuilds (full relabels)
	KLGainCacheHits                  // candidate gains served from the cached digest table
	KLGainCacheMisses                // probe digests recomputed after locality invalidation
	KLCPCriticalInc                  // critical-node removals handled without a full sweep
	KLPoolHits                       // trajectory workspaces reused from the pool
	KLPoolMisses                     // trajectory workspaces built fresh

	// Exact branch-and-bound (internal/exact).
	ExactExplored     // search-tree nodes expanded
	ExactLocalPrunes  // subtrees cut by the worker-local best
	ExactSharedPrunes // subtrees cut by the shared (cross-worker/seeded) bound
	ExactBoundRaises  // successful best-bound publications by the search itself
	ExactSubtreeTasks // parallel prefix tasks claimed and replayed

	// Genetic baseline (internal/genetic).
	GeneticGenerations
	GeneticEvaluations

	// Racing meta-engine (internal/search).
	RacingSeeds // heuristic answers that successfully tightened the exact bound

	// Store persistence resilience (serving layer): post-job flush
	// attempts that were retried after a transient failure, and flushes
	// that still failed after every retry (the costings stay dirty in
	// memory for the next job's flush).
	StoreFlushRetries
	StoreFlushFailures

	numCounters
)

// counterNames are the stable exposition names, index-aligned with the
// Counter constants. Prometheus families append a _total suffix.
var counterNames = [numCounters]string{
	"kl_toggles",
	"kl_probes",
	"kl_cp_full_sweeps",
	"kl_gain_rebuilds",
	"kl_gaincache_hits",
	"kl_gaincache_misses",
	"kl_cp_critical_inc",
	"kl_pool_hits",
	"kl_pool_misses",
	"exact_explored",
	"exact_local_prunes",
	"exact_shared_prunes",
	"exact_bound_raises",
	"exact_subtree_tasks",
	"genetic_generations",
	"genetic_evaluations",
	"racing_seed_publications",
	"store_flush_retries",
	"store_flush_failures",
}

// String returns the counter's stable exposition name.
func (c Counter) String() string {
	if c < 0 || c >= numCounters {
		return fmt.Sprintf("counter(%d)", int(c))
	}
	return counterNames[c]
}

// AllCounters lists every counter in exposition order.
func AllCounters() []Counter {
	out := make([]Counter, numCounters)
	for i := range out {
		out[i] = Counter(i)
	}
	return out
}

// CounterSnapshot is a point-in-time copy of every counter.
type CounterSnapshot [numCounters]int64

// Get returns one counter's value.
func (s CounterSnapshot) Get(c Counter) int64 {
	if c < 0 || c >= numCounters {
		return 0
	}
	return s[c]
}

// Add accumulates another snapshot into this one (the shard-aggregation
// primitive: merging two recorders' counters is a vector add).
func (s *CounterSnapshot) Add(o CounterSnapshot) {
	for i := range s {
		s[i] += o[i]
	}
}

// Map returns the non-zero counters keyed by exposition name — the shape
// the bench JSON and the metrics endpoint serialize.
func (s CounterSnapshot) Map() map[string]int64 {
	out := make(map[string]int64)
	for i, v := range s {
		if v != 0 {
			out[counterNames[i]] = v
		}
	}
	return out
}

// Recorder collects one job's spans and counters. The zero value is not
// usable; construct with NewRecorder. A nil *Recorder is the no-op
// recorder: every method returns immediately.
//
// Counters are lock-free (atomic adds); spans take a mutex, which is fine
// because spans are created at coarse granularity (per trajectory, per
// subtree task, per block), never per inner-loop iteration.
type Recorder struct {
	epoch    time.Time
	counters [numCounters]atomic.Int64

	mu      sync.Mutex
	spans   []Span // fixed-size ring, slot = (id-1) % cap; ID 0 = empty
	next    uint64 // last issued span ID
	dropped int64  // spans overwritten by ring wrap
}

// NewRecorder returns a recorder whose span ring holds spanCap spans
// (negative means DefaultSpanCap; 0 disables span recording entirely —
// counters only, which is what the benchmark harness uses so span
// bookkeeping never pollutes allocation counts).
func NewRecorder(spanCap int) *Recorder {
	if spanCap < 0 {
		spanCap = DefaultSpanCap
	}
	r := &Recorder{epoch: time.Now()}
	if spanCap > 0 {
		r.spans = make([]Span, spanCap)
	}
	return r
}

// now returns nanoseconds since the recorder's epoch on the monotonic
// clock.
func (r *Recorder) now() int64 { return time.Since(r.epoch).Nanoseconds() }

// Start opens a span and returns its ID (0 on a nil recorder or when
// spans are disabled). parent may be 0 for a root span.
func (r *Recorder) Start(parent SpanID, kind, name string) SpanID {
	if r == nil || len(r.spans) == 0 {
		return 0
	}
	start := r.now()
	r.mu.Lock()
	r.next++
	id := SpanID(r.next)
	slot := (r.next - 1) % uint64(len(r.spans))
	if r.spans[slot].ID != 0 {
		r.dropped++
	}
	r.spans[slot] = Span{ID: id, Parent: parent, Kind: kind, Name: name, StartNs: start}
	r.mu.Unlock()
	return id
}

// End closes the span. Ending a span the ring has already overwritten is
// a silent no-op (it is already counted in Dropped); so is id 0.
func (r *Recorder) End(id SpanID) {
	if r == nil || id == 0 || len(r.spans) == 0 {
		return
	}
	end := r.now()
	r.mu.Lock()
	slot := (uint64(id) - 1) % uint64(len(r.spans))
	if r.spans[slot].ID == id {
		r.spans[slot].EndNs = end
	}
	r.mu.Unlock()
}

// Add tallies n into counter c. Nil-safe and lock-free.
func (r *Recorder) Add(c Counter, n int64) {
	if r == nil || n == 0 || c < 0 || c >= numCounters {
		return
	}
	r.counters[c].Add(n)
}

// Counters snapshots every counter.
func (r *Recorder) Counters() CounterSnapshot {
	var s CounterSnapshot
	if r == nil {
		return s
	}
	for i := range s {
		s[i] = r.counters[i].Load()
	}
	return s
}

// Dropped reports how many spans the ring has overwritten.
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Spans returns the retained spans in creation (ID) order.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]Span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.ID != 0 {
			out = append(out, s)
		}
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// spanLine is the NDJSON wire form of one span.
type spanLine struct {
	Type string `json:"type"`
	Span
}

// WriteSpans emits the retained spans as NDJSON, one
// {"type":"span",...} object per line in ID order, followed by a
// {"type":"trace_summary",...} line carrying the drop count and the
// counter inventory.
func (r *Recorder) WriteSpans(w io.Writer) error {
	if r == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	for _, s := range r.Spans() {
		if err := enc.Encode(spanLine{Type: "span", Span: s}); err != nil {
			return err
		}
	}
	c := r.Counters()
	return enc.Encode(struct {
		Type     string           `json:"type"`
		Spans    int              `json:"spans"`
		Dropped  int64            `json:"dropped"`
		Counters map[string]int64 `json:"counters"`
	}{Type: "trace_summary", Spans: len(r.Spans()), Dropped: r.Dropped(), Counters: c.Map()})
}

// WriteSummary prints a human-readable per-kind aggregate table and the
// non-zero counters.
func (r *Recorder) WriteSummary(w io.Writer) {
	if r == nil {
		return
	}
	spans := r.Spans()
	type agg struct {
		kind  string
		n     int
		open  int
		total time.Duration
	}
	byKind := map[string]*agg{}
	var order []string
	for _, s := range spans {
		a := byKind[s.Kind]
		if a == nil {
			a = &agg{kind: s.Kind}
			byKind[s.Kind] = a
			order = append(order, s.Kind)
		}
		a.n++
		if s.EndNs == 0 {
			a.open++
		} else {
			a.total += time.Duration(s.EndNs - s.StartNs)
		}
	}
	fmt.Fprintf(w, "%-12s %8s %6s %14s %14s\n", "kind", "count", "open", "total", "mean")
	for _, k := range order {
		a := byKind[k]
		mean := time.Duration(0)
		if closed := a.n - a.open; closed > 0 {
			mean = a.total / time.Duration(closed)
		}
		fmt.Fprintf(w, "%-12s %8d %6d %14s %14s\n", a.kind, a.n, a.open, a.total.Round(time.Microsecond), mean.Round(time.Microsecond))
	}
	if d := r.Dropped(); d > 0 {
		fmt.Fprintf(w, "dropped %d spans (ring capacity %d)\n", d, len(r.spans))
	}
	c := r.Counters()
	names := make([]string, 0, len(c))
	m := c.Map()
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	if len(names) > 0 {
		fmt.Fprintf(w, "\n%-28s %14s\n", "counter", "value")
		for _, k := range names {
			fmt.Fprintf(w, "%-28s %14d\n", k, m[k])
		}
	}
}
