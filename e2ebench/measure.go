package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/dfgio"
	"repro/internal/obs"
	"repro/internal/search"
	"repro/internal/service"
)

// setupRepeats is how many times one run performs its set-up; setup_s is
// the median, and the last set-up's fixture is measured.
const setupRepeats = 3

// rssPeakQuantile picks the peak_rss_mb statistic from the window's
// resident-set samples: a high quantile rather than the maximum, which a
// single garbage-collection cycle's timing moves by up to a quarter.
const rssPeakQuantile = 0.95

// plantFactor is the share by which --selfcheck slows the planted
// workload's jobs.
const plantFactor = 0.3

// servedCallers is the client count of the served workloads: one per
// tenant, and at most nproc on the 2-CPU reference machine.
const servedCallers = 2

var tenants = [servedCallers]string{"tenant-a", "tenant-b"}

// setUp runs the workload's set-up setupRepeats times and returns the
// last fixture with every set-up's duration in seconds.
func setUp(w *workload, seed int64, window time.Duration, dir string) (*fixture, []float64, error) {
	var fx *fixture
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		var err error
		if fx, err = w.setup(seed, window.Seconds(), dir); err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return fx, times, nil
}

// measureWorkload is the untraced end-to-end run: set-up, then one
// closed-loop window.
func measureWorkload(out io.Writer, w *workload, seed int64, window time.Duration, dir string) (result, error) {
	fx, setupTimes, err := setUp(w, seed, window, dir)
	if err != nil {
		return result{}, err
	}
	return measureFixture(out, w, fx, setupTimes, seed, window, dir, false)
}

// measureFixture measures one window over a set-up fixture and reports
// the end-to-end metrics; plant slows the measured path by plantFactor.
func measureFixture(out io.Writer, w *workload, fx *fixture, setupTimes []float64, seed int64, window time.Duration, dir string, plant bool) (result, error) {
	win, err := runWindow(w, fx, window, dir, plant, nil)
	if err != nil {
		return result{}, err
	}
	res := result{
		Correct:   win.failed == 0,
		Attempted: win.attempted,
		Failed:    win.failed,
		Metrics: map[string]metric{
			"jobs_per_s":  {win.jobsPerSec(), "1/s"},
			"job_p50_ms":  {median(win.latMs), "ms"},
			"ise_speedup": {geomean(win.speedupValues()), "x"},
			"peak_rss_mb": {quantile(win.rssMB, rssPeakQuantile), "MB"},
			"setup_s":     {median(setupTimes), "s"},
		},
	}
	n := len(win.latMs)
	rows := []row{
		{"jobs_per_s", res.Metrics["jobs_per_s"], fmt.Sprintf("median of n=%d %v slices; %d jobs over %.2fs",
			len(windowSlices(win.elapsed)), sliceLen, n, win.elapsed.Seconds())},
		{"job_p50_ms", res.Metrics["job_p50_ms"], fmt.Sprintf("n=%d", n)},
		{"ise_speedup", res.Metrics["ise_speedup"], fmt.Sprintf("geomean over n=%d applications", len(win.speedups))},
		{"peak_rss_mb", res.Metrics["peak_rss_mb"], fmt.Sprintf("p%.0f of n=%d samples every %v; max %.1f MB",
			100*rssPeakQuantile, len(win.rssMB), rssInterval, quantile(win.rssMB, 1))},
		{"setup_s", res.Metrics["setup_s"], fmt.Sprintf("median of n=%d set-ups", len(setupTimes))},
		{"failed_frac", metric{float64(win.failed) / float64(max(win.attempted, 1)), "ratio"},
			fmt.Sprintf("%d of %d jobs%s", win.failed, win.attempted, win.reasonText())},
	}
	// The 90th percentile is reported only when at least ten samples lie
	// beyond it.
	p90 := row{"job_p90_ms", metric{quantile(win.latMs, 0.9), "ms"}, fmt.Sprintf("n=%d", n)}
	if n < 100 {
		p90.m.Value, p90.count = 0, fmt.Sprintf("n=%d: not reported, needs >= 100 samples", n)
	}
	rows = append(rows, p90)
	printTable(out, fmt.Sprintf("workload %s (seed %d, %v window, %d caller(s), closed loop)",
		w.name, seed, window, win.callers), rows)
	return res, nil
}

// windowResult is one closed-loop measurement.
type windowResult struct {
	callers           int
	latMs             []float64 // every completed timed job, in ms
	attempted, failed int
	reasons           map[string]int
	// elapsed runs from the window start to the last timed completion,
	// so a partial final job never skews throughput.
	elapsed time.Duration
	// speedups maps request index to Summary.speedup for the leading
	// fixture.speedupN requests.
	speedups map[int]float64
	// jobs holds every timed job's run; rssMB the resident-set samples.
	jobs            []interval
	rssMB           []float64
	mallocs, allocB uint64
	gcs             uint32
}

// jobsPerSec is the median over the window's slices of the completion
// rate.
func (w *windowResult) jobsPerSec() float64 { return median(sliceRates(w.jobs, w.elapsed)) }

func (w *windowResult) speedupValues() []float64 {
	idx := make([]int, 0, len(w.speedups))
	for i := range w.speedups {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	out := make([]float64, len(idx))
	for k, i := range idx {
		out[k] = w.speedups[i]
	}
	return out
}

func (w *windowResult) reasonText() string {
	if len(w.reasons) == 0 {
		return ""
	}
	var parts []string
	for r, n := range w.reasons {
		parts = append(parts, fmt.Sprintf("%d× %s", n, r))
	}
	sort.Strings(parts)
	return ": " + strings.Join(parts, "; ")
}

// jobFunc runs request idx (pool entry req) for the given caller and
// returns the response stream.
type jobFunc func(caller, idx int, req *request) ([]byte, error)

// pick maps a position in the request sequence to a pool entry.
func (fx *fixture) pick(idx int) (int, bool) {
	switch {
	case len(fx.reqs) == 1:
		return 0, true
	case fx.cycle:
		return idx % len(fx.reqs), true
	default:
		return idx, idx < len(fx.reqs)
	}
}

// closedLoop runs callers clients, each sending its next request only
// after the previous one completed, until the window ends (or the pool
// runs out). Caller c sends sequence positions c, c+callers, ... Every
// response is checked. Afterwards any request among the leading
// fx.speedupN that the window did not reach is sent untimed, so
// ise_speedup always covers the same applications.
func closedLoop(fx *fixture, callers int, d time.Duration, do jobFunc) *windowResult {
	res := &windowResult{callers: callers, reasons: map[string]int{}, speedups: map[int]float64{}}
	var mu sync.Mutex
	record := func(idx int, req *request, stream []byte, err error) {
		mu.Lock()
		defer mu.Unlock()
		res.attempted++
		why := ""
		if err != nil {
			why = err.Error()
		} else {
			why = checkJob(req, stream)
		}
		if why != "" {
			res.failed++
			res.reasons[why]++
			return
		}
		if r, _ := fx.pick(idx); r < fx.speedupN {
			if _, seen := res.speedups[r]; !seen {
				if s, ok := summaryOf(stream); ok {
					res.speedups[r] = s.Speedup
				}
			}
		}
	}

	var m0, m1 runtime.MemStats
	rss := startRSS()
	runtime.ReadMemStats(&m0)
	start := rss.start
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; ; k++ {
				idx := k*callers + c
				r, ok := fx.pick(idx)
				if !ok || !time.Now().Before(deadline) {
					return
				}
				t0 := time.Now()
				stream, err := do(c, idx, &fx.reqs[r])
				t1 := time.Now()
				mu.Lock()
				res.latMs = append(res.latMs, ms(t1.Sub(t0)))
				res.jobs = append(res.jobs, interval{t0.Sub(start), t1.Sub(start)})
				if e := t1.Sub(start); e > res.elapsed {
					res.elapsed = e
				}
				mu.Unlock()
				record(idx, &fx.reqs[r], stream, err)
			}
		}(c)
	}
	wg.Wait()
	runtime.ReadMemStats(&m1)
	res.rssMB = rss.finish()
	res.mallocs = m1.Mallocs - m0.Mallocs
	res.allocB = m1.TotalAlloc - m0.TotalAlloc
	res.gcs = m1.NumGC - m0.NumGC

	for r := 0; r < fx.speedupN; r++ {
		if _, ok := res.speedups[r]; !ok {
			stream, err := do(0, r, &fx.reqs[r])
			record(r, &fx.reqs[r], stream, err)
		}
	}
	return res
}

// runWindow measures one window of the workload: offline jobs from one
// caller, or a fresh server with two tenants. tr, when set, records the
// per-layer trace (offline jobs only; the served trace reads the
// server's metrics instead, see traceServed).
func runWindow(w *workload, fx *fixture, d time.Duration, dir string, plant bool, tr *traceAcc) (*windowResult, error) {
	if !w.served {
		// One untimed, untraced job first, so lazily grown runtime state
		// (heap, pools) is in place as it would be in a long-running
		// caller. It is checked and counted like every other job.
		warm := &offlineJob{params: fx.params, newCache: search.NewCostCache}
		stream, err := warm.run(&fx.reqs[0])
		why := ""
		if err != nil {
			why = err.Error()
		} else {
			why = checkJob(&fx.reqs[0], stream)
		}
		job := &offlineJob{params: fx.params, newCache: search.NewCostCache, plant: plant, tr: tr}
		win := closedLoop(fx, 1, d, func(_, _ int, req *request) ([]byte, error) { return job.run(req) })
		win.attempted++
		if why != "" {
			win.failed++
			win.reasons["warm-up: "+why]++
		}
		return win, nil
	}
	srv, err := startServer(fx, dir)
	if err != nil {
		return nil, err
	}
	win := closedLoop(fx, servedCallers, d, srv.post)
	return win, srv.close()
}

// offlineJob is the `isegen -json` path: parse the .dfg text, run
// service.Run with a fresh cost cache and encode the NDJSON stream, then
// flush the cache (a no-op without a store, as in isegen without
// -cache-dir).
type offlineJob struct {
	params   service.Params
	newCache func() *search.CostCache
	plant    bool
	tr       *traceAcc
}

// Span kinds the benchmark records around the layer calls it makes.
const (
	kindParse  = "parse"
	kindRun    = "run"
	kindEncode = "encode"
	kindStore  = "store"
)

func (o *offlineJob) run(req *request) ([]byte, error) {
	start := time.Now()
	var rec *obs.Recorder
	if o.tr != nil {
		rec = obs.NewRecorder(obs.DefaultSpanCap)
	}
	jobSpan := rec.Start(0, obs.KindJob, o.params.Algo)
	sp := rec.Start(jobSpan, kindParse, "dfgio")
	app, err := dfgio.ParseApplication("job", bytes.NewReader(req.dfg))
	rec.End(sp)
	if err != nil {
		return nil, err
	}
	cache := o.newCache()
	h0, m0 := cache.Stats()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	runSpan := rec.Start(jobSpan, kindRun, "service.Run")
	var lastBlockEnd, summaryStart time.Time
	emit := func(v any) error {
		_, isSummary := v.(*service.Summary)
		if isSummary {
			summaryStart = time.Now()
			if o.plant {
				time.Sleep(time.Duration(plantFactor * float64(time.Since(start))))
			}
		}
		sp := rec.Start(runSpan, kindEncode, "")
		err := enc.Encode(v)
		rec.End(sp)
		if _, ok := v.(*service.BlockResult); ok {
			lastBlockEnd = time.Now()
		}
		return err
	}
	ctx := obs.WithParentSpan(obs.WithRecorder(context.Background(), rec), runSpan)
	err = service.Run(ctx, app, o.params, cache, emit)
	rec.End(runSpan)
	if err != nil {
		return nil, err
	}
	h1, m1 := cache.Stats()
	if cache.Store() != nil {
		sp := rec.Start(jobSpan, kindStore, "CostCache.Flush")
		err = cache.Flush()
		rec.End(sp)
		if err != nil {
			return nil, err
		}
	}
	rec.End(jobSpan)
	if o.tr != nil {
		o.tr.addJob(rec, h1-h0, m1-m0, len(buf.Bytes()), summaryStart.Sub(lastBlockEnd))
	}
	return buf.Bytes(), nil
}

// liveServer is an isegend instance on a loopback port.
type liveServer struct {
	srv    *service.Server
	hs     *http.Server
	url    string
	served chan error
	client *http.Client
}

// startServer opens the workload's disk store (a fresh directory unless
// the fixture pre-filled one), starts a default-config server on it and
// waits until it reports ready.
func startServer(fx *fixture, dir string) (*liveServer, error) {
	storeDir := fx.storeDir
	if storeDir == "" {
		var err error
		if err = os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		if storeDir, err = os.MkdirTemp(dir, "store-"); err != nil {
			return nil, err
		}
	}
	store, err := search.NewStore(storeDir, 0)
	if err != nil {
		return nil, err
	}
	srv := service.NewServer(service.Config{Cache: search.NewPersistentCostCache(store)})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	l := &liveServer{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: servedCallers}},
	}
	go func() { l.served <- l.hs.Serve(ln) }()
	for t0 := time.Now(); ; time.Sleep(5 * time.Millisecond) {
		resp, err := l.client.Get(l.url + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return l, nil
			}
		}
		if time.Since(t0) > 30*time.Second {
			return nil, fmt.Errorf("server not ready after 30s: %v", l.close())
		}
	}
}

// close shuts the HTTP server down, drains the queue and flushes the
// cache, and waits for the serving goroutine to return.
func (l *liveServer) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := l.hs.Shutdown(ctx)
	l.srv.Close()
	if serr := <-l.served; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	l.client.CloseIdleConnections()
	return err
}

// post sends a request as the caller's tenant and reads the stream to
// its last byte; it is the served workloads' jobFunc.
func (l *liveServer) post(caller, _ int, req *request) ([]byte, error) {
	hr, err := http.NewRequest(http.MethodPost, l.url+"/v1/select", bytes.NewReader(req.dfg))
	if err != nil {
		return nil, err
	}
	hr.Header.Set("X-Tenant", tenants[caller])
	resp, err := l.client.Do(hr)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	return body, nil
}

// metrics reads the server's /v1/metrics document.
func (l *liveServer) metrics() (service.Metrics, error) {
	var m service.Metrics
	resp, err := l.client.Get(l.url + "/v1/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	return m, json.NewDecoder(resp.Body).Decode(&m)
}
