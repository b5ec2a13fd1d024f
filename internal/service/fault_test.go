package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/kernels"
	"repro/internal/search"
)

// waitGoroutines polls until the process goroutine count returns to (near)
// the baseline, failing the test if it never does — the leak check the
// shutdown and fault paths must pass.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines %d > baseline %d after shutdown; leak", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestQueueCloseFailsPendingPromptly pins the shutdown contract under
// load: Close must fail every still-pending job (and release submitters
// blocked on Done) immediately, while an in-flight job is still running —
// not after it finishes — leak no goroutines, and keep Stats consistent.
func TestQueueCloseFailsPendingPromptly(t *testing.T) {
	baseline := runtime.NumGoroutine()
	q := NewQueue(8, 1, 1)
	started := make(chan string, 1)
	release := make(chan struct{})
	running, err := q.Submit(context.Background(), "t", blockingJob(started, release, "run"))
	if err != nil {
		t.Fatal(err)
	}
	<-started // the one worker is now occupied for the rest of the test

	var pending []*Job
	for i := 0; i < 4; i++ {
		j, err := q.Submit(context.Background(), "t", func(context.Context) {
			t.Error("pending job ran during shutdown")
		})
		if err != nil {
			t.Fatal(err)
		}
		pending = append(pending, j)
	}
	// A blocked submitter waits on Done exactly like the HTTP handler.
	submitterErr := make(chan error, 1)
	go func() { submitterErr <- pending[0].Err() }()

	closed := make(chan struct{})
	go func() { q.Close(); close(closed) }()

	// Pending jobs fail promptly — the in-flight job is still blocked.
	for i, j := range pending {
		select {
		case <-j.Done():
		case <-time.After(5 * time.Second):
			t.Fatalf("pending job %d not failed while a job is in flight", i)
		}
		if err := j.Err(); !errors.Is(err, ErrQueueClosed) {
			t.Fatalf("pending job %d err = %v, want ErrQueueClosed", i, err)
		}
	}
	select {
	case err := <-submitterErr:
		if !errors.Is(err, ErrQueueClosed) {
			t.Fatalf("blocked submitter got %v, want ErrQueueClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked submitter never released")
	}
	// Close itself still drains the in-flight job before returning.
	select {
	case <-closed:
		t.Fatal("Close returned before the in-flight job finished")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	<-closed
	<-running.Done()
	if err := running.Err(); err != nil {
		t.Fatalf("in-flight job err = %v, want nil", err)
	}
	st := q.Stats()
	if st.Accepted != 5 || st.Completed != 1 || st.Dropped != 4 || st.Depth != 0 || st.Active != 0 {
		t.Fatalf("stats %+v, want accepted 5 = completed 1 + dropped 4, idle", st)
	}
	q.Close() // idempotent
	waitGoroutines(t, baseline)
}

// postSelectCtx is postSelect with a caller-owned context, for requests a
// test must cancel or that are expected to fail.
func postSelectCtx(ctx context.Context, ts *httptest.Server, dfg []byte, query string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/select"+query, bytes.NewReader(dfg))
	if err != nil {
		return nil, err
	}
	return http.DefaultClient.Do(req)
}

// TestServiceRetryAfterQueueFull pins satellite backpressure: with the
// single worker wedged (injected stall) and the FIFO full, the next
// submission gets 503 with a Retry-After derived from the queue depth, and
// the readiness probe reports saturation with the same hint.
func TestServiceRetryAfterQueueFull(t *testing.T) {
	in := fault.New(1, fault.Rule{Point: fault.PointServiceJob, Kind: fault.Stall})
	srv := NewServer(Config{QueueCapacity: 1, Workers: 1, FaultInjector: in})
	ts := httptest.NewServer(srv.Handler())
	dfg := kernelDFG(t, kernels.Fbital00())

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	post := func() {
		defer wg.Done()
		if resp, err := postSelectCtx(ctx, ts, dfg, ""); err == nil {
			resp.Body.Close()
		}
	}
	await := func(cond func(QueueStats) bool, what string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond(srv.queue.Stats()) {
			if time.Now().After(deadline) {
				t.Fatalf("%s never reached (stats %+v)", what, srv.queue.Stats())
			}
			time.Sleep(time.Millisecond)
		}
	}
	wg.Add(1)
	go post() // stalls on the worker
	await(func(st QueueStats) bool { return st.Active == 1 }, "one active job")
	wg.Add(1)
	go post() // fills the FIFO
	await(func(st QueueStats) bool { return st.Depth == 1 }, "queue depth 1")

	// Third submission bounces with a depth-derived Retry-After: depth 1
	// over 1 worker = 2 seconds, not a hardcoded 1.
	status, _ := postSelect(t, ts, dfg, "")
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", status)
	}
	resp, err := http.Post(ts.URL+"/v1/select", "text/plain", bytes.NewReader(dfg))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || got != 2 {
		t.Fatalf("Retry-After = %q, want \"2\" (1 + depth/workers)", resp.Header.Get("Retry-After"))
	}

	// The readiness probe mirrors the saturation, with the same hint.
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var body map[string]string
	if err := json.NewDecoder(hz.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusServiceUnavailable || body["reason"] != "queue saturated" {
		t.Fatalf("healthz = %d %v, want 503 queue saturated", hz.StatusCode, body)
	}
	if _, err := strconv.Atoi(hz.Header.Get("Retry-After")); err != nil {
		t.Fatalf("healthz 503 Retry-After = %q, want an integer", hz.Header.Get("Retry-After"))
	}

	cancel() // disconnecting the clients reclaims the stalled worker
	wg.Wait()
	ts.Close()
	srv.Close()
}

// TestServiceJobDeadline pins the server-enforced deadline: a wedged job
// (injected stall, client never disconnects) is reclaimed at JobDeadline
// and answered with 504; the worker is free again for the next job, which
// streams the normal byte-identical result.
func TestServiceJobDeadline(t *testing.T) {
	in := fault.New(1, fault.Rule{Point: fault.PointServiceJob, Kind: fault.Stall, Count: 1})
	srv := NewServer(Config{JobDeadline: 100 * time.Millisecond, FaultInjector: in})
	ts := httptest.NewServer(srv.Handler())
	defer srv.Close()
	defer ts.Close()
	dfg := kernelDFG(t, kernels.Fbital00())

	status, body := postSelect(t, ts, dfg, "")
	if status != http.StatusGatewayTimeout {
		t.Fatalf("stalled job status = %d (%s), want 504", status, body)
	}
	if !strings.Contains(string(body), "deadline") {
		t.Fatalf("504 body %q does not name the deadline", body)
	}
	// The stall consumed its Count; the next job must run normally, on a
	// worker the deadline actually freed.
	status, body = postSelect(t, ts, dfg, "")
	if status != http.StatusOK {
		t.Fatalf("post-deadline status = %d, want 200", status)
	}
	if want := offlineNDJSON(t, dfg, DefaultParams()); !bytes.Equal(body, want) {
		t.Fatal("post-deadline stream differs from the offline reference")
	}
}

// TestServiceDegradedStoreServesAndRecovers pins degraded-mode serving
// end to end: a disk that fails every write trips the store's breaker
// during post-job flush — yet the response stays 200 and byte-identical
// to the offline reference, /healthz reports degraded (still ready),
// the metrics surfaces expose the breaker, and once the disk heals a
// recovery probe restores healthy persistence.
func TestServiceDegradedStoreServesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	in := fault.New(1, fault.Rule{Point: fault.PointWrite, Kind: fault.ENOSPC})
	store, err := search.NewStoreOptions(dir, 0, search.StoreOptions{
		FS: fault.NewInjectFS(nil, in), BreakerThreshold: 1, ProbeEvery: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(Config{
		Cache:        search.NewPersistentCostCache(store),
		FlushBackoff: time.Millisecond,
	})
	ts := httptest.NewServer(srv.Handler())
	defer srv.Close()
	defer ts.Close()
	dfg := kernelDFG(t, kernels.Fbital00())

	status, body := postSelect(t, ts, dfg, "")
	if status != http.StatusOK {
		t.Fatalf("status = %d with a failing disk, want 200 (degraded, not dead)", status)
	}
	if want := offlineNDJSON(t, dfg, DefaultParams()); !bytes.Equal(body, want) {
		t.Fatal("degraded-mode stream differs from the offline reference")
	}
	if !store.Degraded() {
		t.Fatal("breaker did not trip after failed flushes")
	}

	// Readiness: degraded is flagged but still 200 — load balancers keep
	// routing. Poll past the async store-ready scan first.
	healthz := func() (int, map[string]string) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]string
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, m
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if code, m := healthz(); code == http.StatusOK {
			if m["status"] != "degraded" {
				t.Fatalf("healthz status %q, want degraded", m["status"])
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("healthz never became ready")
		}
		time.Sleep(time.Millisecond)
	}

	m := fetchMetrics(t, ts)
	if m.Cache.Store == nil || !m.Cache.Store.Degraded || m.Cache.Store.BreakerTrips < 1 {
		t.Fatalf("metrics store = %+v, want degraded with a recorded trip", m.Cache.Store)
	}
	if m.Search.Counters["store_flush_failures"] < 1 {
		t.Fatalf("counters = %v, want store_flush_failures >= 1", m.Search.Counters)
	}
	prom, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	buf := make([]byte, 32<<10)
	for {
		n, err := prom.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	prom.Body.Close()
	if !strings.Contains(sb.String(), "isegend_store_degraded 1") {
		t.Fatal("prometheus exposition does not flag the degraded store")
	}

	// The disk heals: the next job's flush rides a recovery probe
	// (ProbeEvery 1) and the still-dirty costings finally persist.
	in.Clear()
	if status, _ := postSelect(t, ts, dfg, ""); status != http.StatusOK {
		t.Fatalf("post-heal status = %d, want 200", status)
	}
	if store.Degraded() {
		t.Fatal("store still degraded after the disk healed")
	}
	st := store.Stats()
	if st.Recoveries != 1 || st.Saves == 0 {
		t.Fatalf("store stats %+v, want one recovery and persisted saves", st)
	}
	if code, m := healthz(); code != http.StatusOK || m["status"] != "ok" {
		t.Fatalf("post-recovery healthz = %d %v, want 200 ok", code, m)
	}
}

// TestServiceEngineBlockFaultMidStream pins the mid-stream failure
// contract: a block that fails after earlier blocks already streamed
// cannot retract the committed 200, so the stream terminates with an
// in-band error record naming the injected fault.
func TestServiceEngineBlockFaultMidStream(t *testing.T) {
	in := fault.New(1, fault.Rule{Point: fault.PointEngineBlock, Kind: fault.Err, Start: 1, Count: 1})
	srv := NewServer(Config{FaultInjector: in})
	ts := httptest.NewServer(srv.Handler())
	defer srv.Close()
	defer ts.Close()
	dfg := kernelDFG(t, kernels.Fbital00())

	// workers=1 serializes the per-block fan-out, so fault op indices map
	// to block indices deterministically: block 0 streams, block 1 dies.
	status, body := postSelect(t, ts, dfg, "?algo=exact&workers=1")
	if status != http.StatusOK {
		t.Fatalf("status = %d, want 200 (first block committed the stream)", status)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) < 2 {
		t.Fatalf("stream has %d records, want at least block 0 + error", len(lines))
	}
	var first, last struct {
		Type  string `json:"type"`
		Error string `json:"error"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if first.Type != "block" {
		t.Fatalf("first record type %q, want block", first.Type)
	}
	if last.Type != "error" || !strings.Contains(last.Error, "injected") {
		t.Fatalf("last record = %+v, want an error record naming the injected fault", last)
	}

	// The fault consumed its Count: a clean retry is byte-identical to the
	// offline reference.
	p := DefaultParams()
	p.Algo, p.Workers = "exact", 1
	status, body = postSelect(t, ts, dfg, "?algo=exact&workers=1")
	if status != http.StatusOK {
		t.Fatalf("retry status = %d, want 200", status)
	}
	if want := offlineNDJSON(t, dfg, p); !bytes.Equal(body, want) {
		t.Fatal("retry after fault clearance is not byte-identical to the offline reference")
	}
}

// TestServiceJobFaultsBeforeStream pins the pre-stream failure statuses:
// an injected job error (and an injected panic) before any byte is
// written surface as real 500s, each contained to its one job.
func TestServiceJobFaultsBeforeStream(t *testing.T) {
	in := fault.New(1,
		fault.Rule{Point: fault.PointServiceJob, Kind: fault.Err, Start: 0, Count: 1},
		fault.Rule{Point: fault.PointServiceJob, Kind: fault.Panic, Start: 1, Count: 1},
	)
	srv := NewServer(Config{FaultInjector: in})
	ts := httptest.NewServer(srv.Handler())
	defer srv.Close()
	defer ts.Close()
	dfg := kernelDFG(t, kernels.Fbital00())

	status, body := postSelect(t, ts, dfg, "")
	if status != http.StatusInternalServerError || !strings.Contains(string(body), "injected") {
		t.Fatalf("injected job error: %d %s, want 500 naming the fault", status, body)
	}
	status, body = postSelect(t, ts, dfg, "")
	if status != http.StatusInternalServerError || !strings.Contains(string(body), "panicked") {
		t.Fatalf("injected panic: %d %s, want 500 from the contained panic", status, body)
	}
	if st := srv.queue.Stats(); st.Panics != 1 {
		t.Fatalf("queue panics = %d, want 1", st.Panics)
	}
	// Both faults consumed: the daemon is healthy, not crashed.
	status, body = postSelect(t, ts, dfg, "")
	if status != http.StatusOK {
		t.Fatalf("post-fault status = %d, want 200", status)
	}
	if want := offlineNDJSON(t, dfg, DefaultParams()); !bytes.Equal(body, want) {
		t.Fatal("post-fault stream differs from the offline reference")
	}
}

// TestServiceSearchRoundFault pins the application-flow fault point: an
// injected error in ISEGEN's first greedy round kills the job before the
// (end-of-run) emission, so the client sees a clean 500, and the next job
// is unaffected.
func TestServiceSearchRoundFault(t *testing.T) {
	in := fault.New(1, fault.Rule{Point: fault.PointSearchRound, Kind: fault.Err, Count: 1})
	srv := NewServer(Config{FaultInjector: in})
	ts := httptest.NewServer(srv.Handler())
	defer srv.Close()
	defer ts.Close()
	dfg := kernelDFG(t, kernels.Fbital00())

	status, body := postSelect(t, ts, dfg, "")
	if status != http.StatusInternalServerError || !strings.Contains(string(body), "injected") {
		t.Fatalf("round fault: %d %s, want 500 naming the fault", status, body)
	}
	if in.Fires(fault.PointSearchRound) != 1 {
		t.Fatal("search.round fault never fired; the injector is not plumbed through the engine")
	}
	status, body = postSelect(t, ts, dfg, "")
	if status != http.StatusOK {
		t.Fatalf("post-fault status = %d, want 200", status)
	}
	if want := offlineNDJSON(t, dfg, DefaultParams()); !bytes.Equal(body, want) {
		t.Fatal("post-fault stream differs from the offline reference")
	}
}
