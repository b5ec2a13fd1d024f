package obs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// A nil recorder must accept every operation; this is the no-op path the
// whole pipeline leans on.
func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	id := r.Start(0, KindJob, "x")
	if id != 0 {
		t.Fatalf("nil Start = %d, want 0", id)
	}
	r.End(id)
	r.Add(KLToggles, 5)
	if c := r.Counters(); c != (CounterSnapshot{}) {
		t.Fatalf("nil Counters = %v, want zero", c)
	}
	if s := r.Spans(); s != nil {
		t.Fatalf("nil Spans = %v, want nil", s)
	}
	if err := r.WriteSpans(&bytes.Buffer{}); err != nil {
		t.Fatalf("nil WriteSpans: %v", err)
	}
	ctx, ref := StartSpan(context.Background(), KindJob, "x")
	if ref.ID() != 0 {
		t.Fatalf("no-recorder StartSpan issued span %d", ref.ID())
	}
	ref.End()
	if got := FromContext(ctx); got != nil {
		t.Fatalf("FromContext on bare ctx = %v", got)
	}
}

func TestSpanTreeAndContext(t *testing.T) {
	r := NewRecorder(16)
	ctx := WithRecorder(context.Background(), r)
	ctx, job := StartSpan(ctx, KindJob, "isegen")
	cctx, blk := StartSpan(ctx, KindBlock, "b0")
	_, eng := StartSpan(cctx, KindEngine, "ISEGEN")
	eng.End()
	blk.End()
	job.End()
	spans := r.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	if spans[0].Parent != 0 || spans[0].Kind != KindJob {
		t.Fatalf("root span wrong: %+v", spans[0])
	}
	if spans[1].Parent != spans[0].ID {
		t.Fatalf("block parent = %d, want %d", spans[1].Parent, spans[0].ID)
	}
	if spans[2].Parent != spans[1].ID {
		t.Fatalf("engine parent = %d, want %d", spans[2].Parent, spans[1].ID)
	}
	for _, s := range spans {
		if s.EndNs < s.StartNs || s.EndNs == 0 {
			t.Fatalf("span %d not closed monotonically: %+v", s.ID, s)
		}
	}
}

// The ring must wrap without growing, counting the overwritten spans.
func TestSpanRingWrap(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 10; i++ {
		id := r.Start(0, KindSubtree, "t")
		r.End(id)
	}
	spans := r.Spans()
	if len(spans) != 4 {
		t.Fatalf("retained %d spans, want 4", len(spans))
	}
	if spans[0].ID != 7 || spans[3].ID != 10 {
		t.Fatalf("retained IDs %d..%d, want 7..10", spans[0].ID, spans[3].ID)
	}
	if d := r.Dropped(); d != 6 {
		t.Fatalf("dropped = %d, want 6", d)
	}
	// Ending an already-overwritten span must not corrupt the slot that
	// replaced it.
	r.End(SpanID(3))
	if got := r.Spans(); len(got) != 4 {
		t.Fatalf("stale End changed retention: %d spans", len(got))
	}
}

// spanCap 0 disables spans entirely (the counters-only mode the bench
// harness uses) while counters keep working.
func TestCountersOnlyRecorder(t *testing.T) {
	r := NewRecorder(0)
	ctx := WithRecorder(context.Background(), r)
	ctx2, ref := StartSpan(ctx, KindJob, "x")
	if ref.ID() != 0 {
		t.Fatalf("spans-disabled recorder issued span %d", ref.ID())
	}
	if ctx2 != ctx {
		t.Fatal("spans-disabled StartSpan should return ctx unchanged")
	}
	r.Add(ExactExplored, 42)
	if got := r.Counters().Get(ExactExplored); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
}

func TestCounterSnapshotMapAndAdd(t *testing.T) {
	var a, b CounterSnapshot
	a[KLToggles] = 3
	b[KLToggles] = 4
	b[RacingSeeds] = 1
	a.Add(b)
	m := a.Map()
	if m["kl_toggles"] != 7 || m["racing_seed_publications"] != 1 || len(m) != 2 {
		t.Fatalf("merged map = %v", m)
	}
	for _, c := range AllCounters() {
		if strings.ContainsAny(c.String(), " -({") {
			t.Fatalf("counter %d has non-exposition name %q", c, c.String())
		}
	}
}

func TestWriteSpansNDJSON(t *testing.T) {
	r := NewRecorder(8)
	id := r.Start(0, KindJob, "j")
	r.End(id)
	r.Add(KLProbes, 9)
	var buf bytes.Buffer
	if err := r.WriteSpans(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var types []string
	for sc.Scan() {
		var line map[string]any
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		types = append(types, line["type"].(string))
	}
	if len(types) != 2 || types[0] != "span" || types[1] != "trace_summary" {
		t.Fatalf("line types = %v", types)
	}
}

func TestHistogramBucketsAndMerge(t *testing.T) {
	var h Histogram
	h.Observe(500 * time.Microsecond) // bucket 0 (≤1ms)
	h.Observe(3 * time.Millisecond)   // ≤5ms
	h.Observe(time.Minute)            // +Inf overflow
	s := h.Snapshot()
	if s.Count != 3 {
		t.Fatalf("count = %d", s.Count)
	}
	if len(s.Counts) != len(s.Buckets)+1 {
		t.Fatalf("counts len %d, buckets len %d", len(s.Counts), len(s.Buckets))
	}
	if s.Counts[0] != 1 || s.Counts[2] != 1 || s.Counts[len(s.Counts)-1] != 1 {
		t.Fatalf("bucket placement wrong: %v", s.Counts)
	}
	// Shard aggregation is a vector add over equal buckets.
	total := int64(0)
	for _, c := range s.Counts {
		total += c
	}
	if total != s.Count {
		t.Fatalf("bucket sum %d != count %d", total, s.Count)
	}
}

func TestAggregateFold(t *testing.T) {
	a := NewAggregate()
	r := NewRecorder(2)
	r.Add(ExactExplored, 10)
	for i := 0; i < 5; i++ { // wrap the 2-slot ring
		r.End(r.Start(0, KindSubtree, ""))
	}
	a.ObserveJob(r, "exact", "alice", 10*time.Millisecond, 2*time.Millisecond)
	a.ObserveJob(nil, "exact", "bob", 20*time.Millisecond, time.Millisecond)
	snap := a.Snapshot()
	if got := snap.Counters.Get(ExactExplored); got != 10 {
		t.Fatalf("aggregate explored = %d", got)
	}
	if snap.SpanDrops != 3 {
		t.Fatalf("span drops = %d, want 3", snap.SpanDrops)
	}
	if snap.Latency["exact"].Count != 2 {
		t.Fatalf("latency count = %d", snap.Latency["exact"].Count)
	}
	if w := snap.QueueWait; w["alice"].Count != 1 || w["bob"].Count != 1 {
		t.Fatalf("wait histograms = %v", w)
	}
}

func TestPromWriterFormat(t *testing.T) {
	var buf bytes.Buffer
	p := NewPromWriter(&buf)
	p.Gauge("x_depth", "queue depth.", Sample{Value: 3})
	p.Counter("x_jobs_total", "jobs.", Sample{Labels: Label("tenant", `a"b\c`), Value: 7})
	var h Histogram
	h.Observe(2 * time.Millisecond)
	h.Observe(time.Minute)
	p.Histogram("x_latency_seconds", "latency.", HistogramSeries{Labels: Label("engine", "exact"), Snap: h.Snapshot()})
	var snap CounterSnapshot
	snap[KLToggles] = 1
	p.CounterFamilies("x", snap)
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE x_depth gauge\nx_depth 3\n",
		`x_jobs_total{tenant="a\"b\\c"} 7`,
		"# TYPE x_latency_seconds histogram",
		`x_latency_seconds_bucket{engine="exact",le="0.0025"} 1`,
		`x_latency_seconds_bucket{engine="exact",le="+Inf"} 2`,
		`x_latency_seconds_count{engine="exact"} 2`,
		"x_kl_toggles_total 1",
		"x_exact_explored_total 0",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q in:\n%s", want, out)
		}
	}
}
