package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dfgio"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/search"
)

// Config sizes a Server. Zero fields take the documented defaults.
type Config struct {
	// QueueCapacity bounds the FIFO of waiting jobs (default 64);
	// submissions beyond it get 503 + Retry-After.
	QueueCapacity int
	// Workers is the number of jobs executed concurrently (default 2).
	Workers int
	// TenantBudget caps one tenant's concurrently running jobs
	// (default 1): a heavy tenant queues behind itself while other
	// tenants' jobs overtake.
	TenantBudget int
	// RunnerWorkers bounds each job's search worker pool (0 = one per
	// CPU core; results are identical for every value).
	RunnerWorkers int
	// Cache is the shared cut-costing cache; default is a content-keyed
	// memory-only persistent cache (NewPersistentCostCache(nil)), so
	// repeated uploads of the same .dfg hit even without a disk store.
	Cache *search.CostCache
	// MaxBodyBytes bounds an upload (default 16 MiB).
	MaxBodyBytes int64
	// JobDeadline bounds each job's run wall-clock time (0 = none): on
	// expiry the job's context cancels, the search aborts, and the client
	// gets 504 — or an in-stream error record if bytes were already
	// committed. It reclaims wedged jobs even when the client never
	// disconnects.
	JobDeadline time.Duration
	// FlushBackoff governs post-job store persistence: a failed flush
	// retries up to flushRetries times with exponential backoff starting
	// at FlushBackoff (default 10ms). A flush refused by the store's write
	// breaker (search.ErrStoreDegraded) is never retried — the breaker
	// exists precisely to stop traffic to a failing disk.
	FlushBackoff time.Duration
	// FaultInjector, when set, is installed on every job context and
	// consulted at the serving-layer fault points (fault.PointServiceJob
	// here; fault.PointEngineBlock and fault.PointSearchRound downstream).
	// Production servers leave it nil, which costs one branch per point.
	FaultInjector *fault.Injector
}

// Server is the long-lived ISE-selection service: .dfg uploads in, NDJSON
// selection streams out (see Run for the wire contract), with bounded
// queueing, per-tenant budgets and a metrics endpoint.
//
//	POST /v1/select?algo=isegen&in=4&out=2&nise=4   body: .dfg text
//	     (&objective=pareto|merit|reuse|area|energy|latency|class,
//	      &gate_penalty=, &latency_budget=, &class_weights=memory=0.5)
//	GET  /v1/metrics    JSON: queue/ready/cache/runtime/search sections
//	GET  /metrics       Prometheus text exposition of the same snapshot
//	GET  /healthz       readiness (503 + reason while unready); ?live=1 liveness
type Server struct {
	cfg   Config
	queue *Queue
	cache *search.CostCache
	// agg accumulates per-job recorders into the served metrics view:
	// engine counters, per-engine latency and per-tenant queue-wait
	// histograms (fixed buckets — see obs.DefaultBuckets).
	agg *obs.Aggregate
	// storeReady flips true once the persistent store's initial
	// directory scan has completed; until then the readiness probe
	// reports 503 so load balancers don't route jobs that would all
	// miss the cache and re-cost from scratch.
	storeReady atomic.Bool

	mu                       sync.Mutex
	lastJobHits, lastJobMiss int64
}

// NewServer starts the worker pool and returns a ready-to-serve Server.
// Call Close to drain it.
func NewServer(cfg Config) *Server {
	if cfg.QueueCapacity <= 0 {
		cfg.QueueCapacity = 64
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.TenantBudget <= 0 {
		cfg.TenantBudget = 1
	}
	if cfg.Cache == nil {
		cfg.Cache = search.NewPersistentCostCache(nil)
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 16 << 20
	}
	if cfg.FlushBackoff <= 0 {
		cfg.FlushBackoff = 10 * time.Millisecond
	}
	s := &Server{
		cfg:   cfg,
		queue: NewQueue(cfg.QueueCapacity, cfg.Workers, cfg.TenantBudget),
		cache: cfg.Cache,
		agg:   obs.NewAggregate(),
	}
	if st := s.cache.Store(); st != nil {
		// Warm the store off the serving path: the first Stats call walks
		// the entry directory, which on a large cache dir takes long
		// enough that routing jobs before it finishes just stacks cold
		// misses. Readiness reports 503 until the scan completes.
		go func() {
			st.Stats()
			s.storeReady.Store(true)
		}()
	} else {
		s.storeReady.Store(true)
	}
	return s
}

// Close stops the queue workers (current jobs finish) and flushes the
// cache to its store.
func (s *Server) Close() {
	s.queue.Close()
	_ = s.cache.Flush()
}

// Handler returns the service's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/select", s.handleSelect)
	mux.HandleFunc("/v1/metrics", s.handleMetrics)
	mux.HandleFunc("/metrics", s.handlePromMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	return mux
}

// handleHealthz distinguishes liveness from readiness. ?live=1 is the
// liveness probe: always 200 while the process serves HTTP. Without it
// the probe reports readiness: 503 with a JSON reason (and a Retry-After
// hint derived from the backlog) while the persistent store is still
// scanning its directory or the queue is saturated (the next Submit would
// be rejected), 200 otherwise. A store whose write breaker is open
// reports 200 with status "degraded" — persistence is postponed but reads
// and jobs still work, so load balancers must keep routing here while
// operators see the flag.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if r.URL.Query().Get("live") != "" {
		_, _ = io.WriteString(w, `{"status":"ok"}`+"\n")
		return
	}
	reason := ""
	switch {
	case !s.storeReady.Load():
		reason = "persistent store loading"
	case s.queue.Saturated():
		reason = "queue saturated"
	}
	if reason != "" {
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSecs()))
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(map[string]string{"status": "unready", "reason": reason})
		return
	}
	if st := s.cache.Store(); st != nil && st.Degraded() {
		_ = json.NewEncoder(w).Encode(map[string]string{"status": "degraded", "reason": "store write breaker open"})
		return
	}
	_, _ = io.WriteString(w, `{"status":"ok"}`+"\n")
}

// retryAfterSecs derives the Retry-After hint from the current backlog:
// roughly one second per Workers-wide batch of queued jobs, clamped to
// [1, 60] so a deep queue never pushes clients away for unbounded time.
func (s *Server) retryAfterSecs() int {
	secs := 1 + s.queue.Stats().Depth/s.cfg.Workers
	if secs > 60 {
		secs = 60
	}
	return secs
}

// httpError writes a JSON error body with the given status.
func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// parseParams reads job parameters from the request's query string,
// falling back to DefaultParams.
func parseParams(r *http.Request) (Params, error) {
	p := DefaultParams()
	q := r.URL.Query()
	if v := q.Get("algo"); v != "" {
		p.Algo = v
	}
	intField := func(name string, dst *int) error {
		v := q.Get(name)
		if v == "" {
			return nil
		}
		n, err := strconv.Atoi(v)
		if err != nil {
			return fmt.Errorf("bad %s=%q", name, v)
		}
		*dst = n
		return nil
	}
	for name, dst := range map[string]*int{
		"in": &p.MaxIn, "out": &p.MaxOut, "nise": &p.NISE, "workers": &p.Workers,
		"subtree_workers": &p.SubtreeWorkers, "max_frontier": &p.MaxFrontier,
	} {
		if err := intField(name, dst); err != nil {
			return p, err
		}
	}
	if v := q.Get("seed"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return p, fmt.Errorf("bad seed=%q", v)
		}
		p.Seed = n
	}
	if v := q.Get("reuse"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			return p, fmt.Errorf("bad reuse=%q", v)
		}
		p.Reuse = b
	}
	p.Objective = q.Get("objective")
	if v := q.Get("gate_penalty"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return p, fmt.Errorf("bad gate_penalty=%q", v)
		}
		// Sign and range rules live in Params.Validate, shared with the
		// CLI, so both surfaces reject the same values the same way.
		p.GatePenalty = f
	}
	if err := intField("latency_budget", &p.LatencyBudget); err != nil {
		return p, err
	}
	if v := q.Get("class_weights"); v != "" {
		cw, err := ParseClassWeights(v)
		if err != nil {
			return p, err
		}
		p.ClassWeights = cw
	}
	if v := q.Get("deadline"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			return p, fmt.Errorf("bad deadline=%q (want a Go duration, e.g. 200ms)", v)
		}
		// Sign and algo-pairing rules live in Params.Validate, shared
		// with the CLI.
		p.Deadline = d
	}
	return p, nil
}

// tenantOf resolves the submitting tenant: the X-Tenant header, the tenant
// query parameter, or "default".
func tenantOf(r *http.Request) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	if t := r.URL.Query().Get("tenant"); t != "" {
		return t
	}
	return "default"
}

func (s *Server) handleSelect(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST a .dfg body to this endpoint")
		return
	}
	p, err := parseParams(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := p.Validate(); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	name := r.URL.Query().Get("name")
	if name == "" {
		name = "upload"
	}
	// Read the bounded body up front: a cut-off stream would otherwise
	// surface as a confusing syntax error on a truncated line instead of
	// a clear 413. The size is already bounded, so buffering is safe.
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge, "upload exceeds %d bytes", tooBig.Limit)
			return
		}
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	app, err := dfgio.ParseApplication(name, bytes.NewReader(body))
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// The server's RunnerWorkers bound, when set, caps (and defaults)
	// the per-job pool; results are identical for every value.
	if s.cfg.RunnerWorkers > 0 && (p.Workers <= 0 || p.Workers > s.cfg.RunnerWorkers) {
		p.Workers = s.cfg.RunnerWorkers
	}

	var wrote bool // any stream bytes committed? (read after job.Done)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	emit := func(v any) error {
		if err := enc.Encode(v); err != nil {
			return err
		}
		wrote = true
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	}
	// Per-job recorder: spans and counters accumulate here while the job
	// runs and fold into s.agg once at completion. The job span opens now
	// (queue wait is part of the job); the queue span closes when a worker
	// picks the job up.
	tenant := tenantOf(r)
	rec := obs.NewRecorder(obs.DefaultSpanCap)
	jobSpan := rec.Start(0, obs.KindJob, p.Algo)
	queueSpan := rec.Start(jobSpan, obs.KindQueue, tenant)
	submitted := time.Now()

	var runErr error // job failure with nothing streamed (read after Done)
	job, err := s.queue.Submit(r.Context(), tenant, func(ctx context.Context) {
		wait := time.Since(submitted)
		rec.End(queueSpan)
		if s.cfg.JobDeadline > 0 {
			// Server-enforced deadline: covers the run only (queue wait is
			// already bounded by the FIFO + budgets), so a wedged engine is
			// reclaimed even when the client never disconnects.
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.cfg.JobDeadline)
			defer cancel()
		}
		ctx = obs.WithParentSpan(obs.WithRecorder(ctx, rec), jobSpan)
		if in := s.cfg.FaultInjector; in != nil {
			ctx = fault.WithInjector(ctx, in)
			ft := in.Check(fault.PointServiceJob)
			if err := ft.Error(); err != nil {
				runErr = err // job dies before streaming; handler sends 500
				return
			}
			// Panic is contained by the queue's recovery; Stall parks until
			// the deadline or the client disconnect reclaims the worker.
			ft.Apply(ctx)
		}
		runStart := time.Now()
		h0, m0 := s.cache.Stats()
		w.Header().Set("Content-Type", "application/x-ndjson")
		// A cancelled *request* context means the client went away — nobody
		// is reading, so no error record. The job context expiring (server
		// deadline) is a real failure: in-stream error record after bytes
		// were committed, 504 before. Engine failures after streaming
		// started land in-stream (the 200 is committed by then); before
		// any record, the handler turns them into a real error status.
		if err := Run(ctx, app, p, s.cache, emit); err != nil && r.Context().Err() == nil {
			if wrote {
				_ = emit(&ErrorRecord{Type: "error", Error: err.Error()})
			} else {
				runErr = err
			}
		}
		h1, m1 := s.cache.Stats()
		// Flush before the recorder folds into the aggregate so the
		// retry/failure counters land in this job's observation; runDur is
		// captured first so persistence latency (and its backoff sleeps)
		// never pollutes the job-duration histograms.
		runDur := time.Since(runStart)
		s.flushStore(rec)
		rec.End(jobSpan)
		s.agg.ObserveJob(rec, p.Algo, tenant, runDur, wait)
		s.mu.Lock()
		// Overlapping jobs blur these deltas; they are exact whenever
		// jobs run one at a time (the benchmark/repro setup).
		s.lastJobHits, s.lastJobMiss = h1-h0, m1-m0
		s.mu.Unlock()
	})
	if err != nil {
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSecs()))
		if errors.Is(err, ErrQueueFull) {
			httpError(w, http.StatusServiceUnavailable, "queue full; retry later")
			return
		}
		httpError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	// The job streams directly to w from a queue worker; the handler
	// must stay on the stack until it finishes.
	<-job.Done()
	jerr := job.Err()
	if jerr == nil {
		jerr = runErr
	}
	switch {
	case jerr == nil:
	case errors.Is(jerr, ErrQueueClosed):
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSecs()))
		httpError(w, http.StatusServiceUnavailable, "server shutting down")
	case r.Context().Err() != nil:
		// Dropped because the client disconnected; nobody is reading.
	case !wrote && errors.Is(jerr, context.DeadlineExceeded):
		// The server deadline expired before any bytes were committed.
		httpError(w, http.StatusGatewayTimeout, "job exceeded the server deadline (%v)", s.cfg.JobDeadline)
	case !wrote:
		// The job died (contained panic or pre-stream failure) before
		// committing any bytes: the client deserves a real error
		// status, not an empty 200.
		httpError(w, http.StatusInternalServerError, "%v", jerr)
	default:
		// Stream already committed; terminate it with an error record.
		_ = emit(&ErrorRecord{Type: "error", Error: jerr.Error()})
	}
}

// flushRetries bounds the retries of a failed post-job store flush.
const flushRetries = 2

// flushStore persists the cache after a job with bounded retry: transient
// failures back off exponentially and try again, while ErrStoreDegraded
// returns immediately — the store's write breaker is already refusing
// writes, and retrying from every job would defeat its purpose. The
// costings stay dirty in memory either way, so a later flush (riding the
// breaker's deterministic recovery probes) persists them eventually. A
// flush that still fails after every retry counts in store_flush_failures.
func (s *Server) flushStore(rec *obs.Recorder) {
	err := s.cache.Flush()
	backoff := s.cfg.FlushBackoff
	for try := 0; try < flushRetries && err != nil && !errors.Is(err, search.ErrStoreDegraded); try++ {
		time.Sleep(backoff)
		backoff *= 2
		rec.Add(obs.StoreFlushRetries, 1)
		err = s.cache.Flush()
	}
	if err != nil {
		rec.Add(obs.StoreFlushFailures, 1)
	}
}

// Metrics is the metrics document. Server.snapshot reads every source
// into it once; /v1/metrics encodes it as JSON and /metrics renders it as
// Prometheus text, so the two surfaces cannot disagree.
type Metrics struct {
	Queue QueueStats `json:"queue"`
	// Ready mirrors the readiness probe: true when /healthz would not
	// report 503.
	Ready bool         `json:"ready"`
	Cache CacheMetrics `json:"cache"`
	// Runtime reports process-level gauges (goroutines, heap highlights).
	Runtime RuntimeMetrics `json:"runtime"`
	// Search reports engine-internal counters and latency/queue-wait
	// histograms accumulated over completed jobs.
	Search SearchMetrics `json:"search"`
}

// RuntimeMetrics is a point-in-time snapshot of process health gauges:
// runtime.NumGoroutine plus the runtime.MemStats highlights that matter
// for a long-lived search daemon (live heap, footprint, GC pressure).
type RuntimeMetrics struct {
	Goroutines      int    `json:"goroutines"`
	HeapAllocBytes  uint64 `json:"heap_alloc_bytes"`
	HeapSysBytes    uint64 `json:"heap_sys_bytes"`
	HeapObjects     uint64 `json:"heap_objects"`
	TotalAllocBytes uint64 `json:"total_alloc_bytes"`
	NumGC           uint32 `json:"num_gc"`
	GCPauseTotalNs  uint64 `json:"gc_pause_total_ns"`
}

func runtimeMetrics() RuntimeMetrics {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return RuntimeMetrics{
		Goroutines:      runtime.NumGoroutine(),
		HeapAllocBytes:  ms.HeapAlloc,
		HeapSysBytes:    ms.HeapSys,
		HeapObjects:     ms.HeapObjects,
		TotalAllocBytes: ms.TotalAlloc,
		NumGC:           ms.NumGC,
		GCPauseTotalNs:  ms.PauseTotalNs,
	}
}

// SearchMetrics is the observability aggregate over completed jobs:
// engine-internal counters (nonzero only, keyed by their stable
// exposition names), span-ring overwrites, and fixed-bucket histograms —
// job latency by engine, queue wait by tenant. Histogram bucket
// boundaries are obs.DefaultBuckets on every shard, so merging across
// servers is a vector add of the count arrays.
type SearchMetrics struct {
	Counters         map[string]int64                 `json:"counters"`
	SpanDrops        int64                            `json:"span_drops"`
	LatencySeconds   map[string]obs.HistogramSnapshot `json:"latency_seconds,omitempty"`
	QueueWaitSeconds map[string]obs.HistogramSnapshot `json:"queue_wait_seconds,omitempty"`
	// all is the same counter read with zeros kept, for the exposition.
	all obs.CounterSnapshot
}

// CacheMetrics reports the shared cost cache's effectiveness: cumulative
// hit/miss counters plus the delta observed during the most recently
// completed job — a repeated upload of an already-seen application shows a
// last-job hit rate near 1.
type CacheMetrics struct {
	Hits        int64   `json:"hits"`
	Misses      int64   `json:"misses"`
	HitRate     float64 `json:"hit_rate"`
	LastJobHits int64   `json:"last_job_hits"`
	LastJobMiss int64   `json:"last_job_misses"`
	LastJobRate float64 `json:"last_job_hit_rate"`
	// Store reports disk persistence activity when a store is attached.
	Store *search.StoreStats `json:"store,omitempty"`
}

// hitRate is hits/(hits+misses), 0 before any lookup.
func hitRate(hits, misses int64) float64 {
	if t := hits + misses; t > 0 {
		return float64(hits) / float64(t)
	}
	return 0
}

// snapshot reads every metrics source once: queue, readiness, cache,
// store, runtime and the job aggregate.
func (s *Server) snapshot() *Metrics {
	hits, misses := s.cache.Stats()
	s.mu.Lock()
	cm := CacheMetrics{Hits: hits, Misses: misses, LastJobHits: s.lastJobHits, LastJobMiss: s.lastJobMiss}
	s.mu.Unlock()
	cm.HitRate = hitRate(cm.Hits, cm.Misses)
	cm.LastJobRate = hitRate(cm.LastJobHits, cm.LastJobMiss)
	if st := s.cache.Store(); st != nil {
		ss := st.Stats()
		cm.Store = &ss
	}
	agg := s.agg.Snapshot()
	return &Metrics{
		Queue:   s.queue.Stats(),
		Ready:   s.storeReady.Load() && !s.queue.Saturated(),
		Cache:   cm,
		Runtime: runtimeMetrics(),
		Search: SearchMetrics{
			Counters:         agg.Counters.Map(),
			SpanDrops:        agg.SpanDrops,
			LatencySeconds:   agg.Latency,
			QueueWaitSeconds: agg.QueueWait,
			all:              agg.Counters,
		},
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(s.snapshot())
}

// promRow is one single-sample Prometheus family read off a snapshot.
type promRow struct {
	name, help string
	emit       func(p *obs.PromWriter, name, help string, samples ...obs.Sample)
	value      func(m *Metrics) float64
}

func (r promRow) write(pw *obs.PromWriter, m *Metrics) {
	r.emit(pw, r.name, r.help, obs.Sample{Value: r.value(m)})
}

var (
	promCounter = (*obs.PromWriter).Counter
	promGauge   = (*obs.PromWriter).Gauge
)

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// promRows are the families every scrape carries.
var promRows = []promRow{
	{"isegend_queue_depth", "Jobs waiting in the bounded FIFO.", promGauge,
		func(m *Metrics) float64 { return float64(m.Queue.Depth) }},
	{"isegend_queue_active_jobs", "Jobs currently running on queue workers.", promGauge,
		func(m *Metrics) float64 { return float64(m.Queue.Active) }},
	{"isegend_queue_accepted_total", "Jobs accepted by Submit.", promCounter,
		func(m *Metrics) float64 { return float64(m.Queue.Accepted) }},
	{"isegend_queue_rejected_total", "Submissions refused (queue full or closed).", promCounter,
		func(m *Metrics) float64 { return float64(m.Queue.Rejected) }},
	{"isegend_queue_completed_total", "Jobs that ran to completion.", promCounter,
		func(m *Metrics) float64 { return float64(m.Queue.Completed) }},
	{"isegend_queue_dropped_total", "Jobs abandoned while queued (cancel or shutdown).", promCounter,
		func(m *Metrics) float64 { return float64(m.Queue.Dropped) }},
	{"isegend_queue_panics_total", "Jobs that crashed (contained to the job).", promCounter,
		func(m *Metrics) float64 { return float64(m.Queue.Panics) }},
	{"isegend_ready", "1 when the readiness probe would report 200.", promGauge,
		func(m *Metrics) float64 { return b2f(m.Ready) }},
	{"isegend_cache_hits_total", "Cut-costing cache hits.", promCounter,
		func(m *Metrics) float64 { return float64(m.Cache.Hits) }},
	{"isegend_cache_misses_total", "Cut-costing cache misses.", promCounter,
		func(m *Metrics) float64 { return float64(m.Cache.Misses) }},
	{"isegend_span_drops_total", "Span-ring overwrites across completed jobs.", promCounter,
		func(m *Metrics) float64 { return float64(m.Search.SpanDrops) }},
	{"isegend_goroutines", "Live goroutines.", promGauge,
		func(m *Metrics) float64 { return float64(m.Runtime.Goroutines) }},
	{"isegend_heap_alloc_bytes", "Bytes of live heap objects.", promGauge,
		func(m *Metrics) float64 { return float64(m.Runtime.HeapAllocBytes) }},
	{"isegend_heap_sys_bytes", "Heap memory obtained from the OS.", promGauge,
		func(m *Metrics) float64 { return float64(m.Runtime.HeapSysBytes) }},
	{"isegend_heap_objects", "Live heap object count.", promGauge,
		func(m *Metrics) float64 { return float64(m.Runtime.HeapObjects) }},
	{"isegend_gc_cycles_total", "Completed GC cycles.", promCounter,
		func(m *Metrics) float64 { return float64(m.Runtime.NumGC) }},
}

// promStoreRows are the families a scrape carries when a persistent store
// is attached (m.Cache.Store non-nil).
var promStoreRows = []promRow{
	{"isegend_store_degraded", "1 while the store's write breaker is open (read-through degraded mode).", promGauge,
		func(m *Metrics) float64 { return b2f(m.Cache.Store.Degraded) }},
	{"isegend_store_bytes", "Bytes of live cache entries on disk.", promGauge,
		func(m *Metrics) float64 { return float64(m.Cache.Store.CurrentBytes) }},
	{"isegend_store_corrupt_total", "Entries quarantined after failing the header, checksum or decode.", promCounter,
		func(m *Metrics) float64 { return float64(m.Cache.Store.Corrupt) }},
	{"isegend_store_write_errors_total", "Disk-touching store writes that failed.", promCounter,
		func(m *Metrics) float64 { return float64(m.Cache.Store.WriteErrors) }},
	{"isegend_store_breaker_trips_total", "Write breaker openings.", promCounter,
		func(m *Metrics) float64 { return float64(m.Cache.Store.BreakerTrips) }},
	{"isegend_store_probes_total", "Recovery probes attempted while degraded.", promCounter,
		func(m *Metrics) float64 { return float64(m.Cache.Store.Probes) }},
	{"isegend_store_recoveries_total", "Breaker closings after a successful probe.", promCounter,
		func(m *Metrics) float64 { return float64(m.Cache.Store.Recoveries) }},
}

// handlePromMetrics serves the snapshot as Prometheus text exposition:
// the row families, every engine-internal counter (zeros included, so a
// silent exporter is distinguishable from a quiet engine), and the
// job-latency and queue-wait histograms.
func (s *Server) handlePromMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.snapshot()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	pw := obs.NewPromWriter(w)
	for _, row := range promRows {
		row.write(pw, m)
	}
	if m.Cache.Store != nil {
		for _, row := range promStoreRows {
			row.write(pw, m)
		}
	}
	pw.CounterFamilies("isegend", m.Search.all)
	pw.HistogramFamily("isegend_job_duration_seconds",
		"Job run latency (queue wait excluded) by engine.", "engine", m.Search.LatencySeconds)
	pw.HistogramFamily("isegend_queue_wait_seconds",
		"Enqueue-to-run-start wait (tenant-budget holds included) by tenant.", "tenant", m.Search.QueueWaitSeconds)
}
