package obs

import (
	"sync"
	"time"
)

// DefaultBuckets are the fixed latency/queue-wait bucket boundaries in
// seconds. They are part of the metrics contract: every histogram this
// package produces uses exactly these boundaries, so aggregating
// histograms across shards (the planned distributed tier) is a vector
// add of the count arrays — no re-bucketing, no interpolation. Do not
// change them without versioning the metrics schema.
var DefaultBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// numBuckets mirrors len(DefaultBuckets); the init check below keeps the
// two in sync.
const numBuckets = 14

func init() {
	if len(DefaultBuckets) != numBuckets {
		panic("obs: numBuckets out of sync with DefaultBuckets")
	}
}

// Histogram counts observations into DefaultBuckets. It is not
// goroutine-safe on its own; Aggregate serializes access.
type Histogram struct {
	counts [numBuckets + 1]int64
	count  int64
	sumNs  int64
}

// Observe adds one duration.
func (h *Histogram) Observe(d time.Duration) {
	s := d.Seconds()
	i := 0
	for i < len(DefaultBuckets) && s > DefaultBuckets[i] {
		i++
	}
	h.counts[i]++
	h.count++
	h.sumNs += d.Nanoseconds()
}

// Snapshot copies the histogram into its serializable form.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Buckets:    DefaultBuckets,
		Counts:     make([]int64, len(h.counts)),
		Count:      h.count,
		SumSeconds: float64(h.sumNs) / 1e9,
	}
	copy(s.Counts, h.counts[:])
	return s
}

// HistogramSnapshot is the wire form of a histogram: per-bucket
// (non-cumulative) counts aligned with Buckets, plus one overflow slot —
// len(Counts) == len(Buckets)+1, with the last slot counting
// observations above the largest boundary (+Inf). Two snapshots with
// equal Buckets merge by adding Counts, Count and SumSeconds.
type HistogramSnapshot struct {
	Buckets    []float64 `json:"buckets_seconds"`
	Counts     []int64   `json:"counts"`
	Count      int64     `json:"count"`
	SumSeconds float64   `json:"sum_seconds"`
}

// Aggregate is the server-side cumulative view: counters summed over
// every completed job, per-engine job-latency histograms, and per-tenant
// queue-wait histograms. One mutex guards it all — folds happen once per
// job, never on a hot path.
type Aggregate struct {
	mu        sync.Mutex
	counters  CounterSnapshot
	spanDrops int64
	latency   map[string]*Histogram // by engine (algo)
	wait      map[string]*Histogram // by tenant
}

// NewAggregate returns an empty aggregate.
func NewAggregate() *Aggregate {
	return &Aggregate{
		latency: make(map[string]*Histogram),
		wait:    make(map[string]*Histogram),
	}
}

// ObserveJob folds one completed job in: the recorder's counters and
// span drops, the job's run latency under its engine, and its queue wait
// under its tenant. rec may be nil (counters skipped).
func (a *Aggregate) ObserveJob(rec *Recorder, engine, tenant string, latency, wait time.Duration) {
	c := rec.Counters()
	drops := rec.Dropped()
	a.mu.Lock()
	defer a.mu.Unlock()
	a.counters.Add(c)
	a.spanDrops += drops
	h := a.latency[engine]
	if h == nil {
		h = &Histogram{}
		a.latency[engine] = h
	}
	h.Observe(latency)
	h = a.wait[tenant]
	if h == nil {
		h = &Histogram{}
		a.wait[tenant] = h
	}
	h.Observe(wait)
}

// AggregateSnapshot is a consistent copy of an Aggregate.
type AggregateSnapshot struct {
	Counters  CounterSnapshot
	SpanDrops int64
	Latency   map[string]HistogramSnapshot // by engine
	QueueWait map[string]HistogramSnapshot // by tenant
}

// Snapshot copies the aggregate under one lock, so its counters and
// histograms describe the same set of completed jobs.
func (a *Aggregate) Snapshot() AggregateSnapshot {
	a.mu.Lock()
	defer a.mu.Unlock()
	return AggregateSnapshot{
		Counters:  a.counters,
		SpanDrops: a.spanDrops,
		Latency:   snapshotMap(a.latency),
		QueueWait: snapshotMap(a.wait),
	}
}

func snapshotMap(m map[string]*Histogram) map[string]HistogramSnapshot {
	out := make(map[string]HistogramSnapshot, len(m))
	for k, h := range m {
		out[k] = h.Snapshot()
	}
	return out
}
