package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/dfgio"
	"repro/internal/ir"
	"repro/internal/kernels"
	"repro/internal/search"
)

// kernelDFG serializes a kernel-suite application to its .dfg upload form.
func kernelDFG(t *testing.T, app *ir.Application) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := dfgio.WriteApplication(&buf, app); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// offlineNDJSON runs the job the way `cmd/isegen -json` does: Run over a
// freshly parsed application with a private cache, NDJSON to a buffer.
func offlineNDJSON(t *testing.T, dfg []byte, p Params) []byte {
	t.Helper()
	app, err := dfgio.ParseApplication("upload", bytes.NewReader(dfg))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Run(context.Background(), app, p, search.NewCostCache(), NDJSONEmitter(&buf)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func postSelect(t *testing.T, ts *httptest.Server, dfg []byte, query string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/select"+query, "text/plain", bytes.NewReader(dfg))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func fetchMetrics(t *testing.T, ts *httptest.Server) Metrics {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestServiceE2EDeterminism pins the over-the-wire contract: the NDJSON a
// live isegend server streams for a kernel-suite .dfg is bit-identical to
// the offline `cmd/isegen -json` output, across algorithms and worker
// counts.
func TestServiceE2EDeterminism(t *testing.T) {
	dfg := kernelDFG(t, kernels.Fbital00())
	srv := NewServer(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		query  string
		params Params
	}{
		{"", DefaultParams()},
		{"?workers=3", func() Params { p := DefaultParams(); p.Workers = 3; return p }()},
		{"?reuse=false", func() Params { p := DefaultParams(); p.Reuse = false; return p }()},
		{"?algo=iterative", func() Params { p := DefaultParams(); p.Algo = "iterative"; return p }()},
		{"?algo=genetic&seed=7&workers=2", func() Params {
			p := DefaultParams()
			p.Algo, p.Seed, p.Workers = "genetic", 7, 2
			return p
		}()},
	}
	for _, tc := range cases {
		t.Run("q="+tc.query, func(t *testing.T) {
			want := offlineNDJSON(t, dfg, tc.params)
			status, got := postSelect(t, ts, dfg, tc.query)
			if status != http.StatusOK {
				t.Fatalf("status %d: %s", status, got)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("served stream differs from offline -json output\nserved:\n%s\noffline:\n%s", got, want)
			}
			// Shape check: one block record per block, then a summary.
			lines := bytes.Split(bytes.TrimSpace(got), []byte("\n"))
			if len(lines) != 4 { // fbital00 has 3 blocks
				t.Fatalf("%d NDJSON lines, want 4", len(lines))
			}
			var last Summary
			if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil || last.Type != "summary" {
				t.Fatalf("last record %s (err %v), want summary", lines[len(lines)-1], err)
			}
		})
	}
}

// TestServiceObjectiveParam pins the objective query parameter end to
// end: ?objective= changes the stream (per-cut objective vectors; a
// frontier record under pareto) and stays bit-identical to the offline
// `cmd/isegen -json -objective` path, while the default stream remains
// exactly the pre-objective schema.
func TestServiceObjectiveParam(t *testing.T) {
	dfg := kernelDFG(t, kernels.Fbital00())
	srv := NewServer(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	status, def := postSelect(t, ts, dfg, "")
	if status != http.StatusOK {
		t.Fatalf("default: status %d", status)
	}
	if bytes.Contains(def, []byte(`"objectives"`)) || bytes.Contains(def, []byte(`"frontier"`)) {
		t.Fatal("default stream leaked objective-schema extensions")
	}

	for _, objective := range []string{"pareto", "area", "merit"} {
		t.Run(objective, func(t *testing.T) {
			p := DefaultParams()
			p.Objective = objective
			want := offlineNDJSON(t, dfg, p)
			status, got := postSelect(t, ts, dfg, "?objective="+objective)
			if status != http.StatusOK {
				t.Fatalf("status %d: %s", status, got)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("served %s stream differs from offline -json -objective output\nserved:\n%s\noffline:\n%s", objective, got, want)
			}
			if bytes.Equal(got, def) {
				t.Fatalf("?objective=%s left the stream identical to the default", objective)
			}
			if !bytes.Contains(got, []byte(`"objectives":{"merit":`)) {
				t.Fatalf("%s stream carries no per-cut objective vectors:\n%s", objective, got)
			}
		})
	}

	// The pareto stream additionally carries the frontier record, with
	// mutually non-dominated points and at least one selected.
	status, body := postSelect(t, ts, dfg, "?objective=pareto")
	if status != http.StatusOK {
		t.Fatalf("pareto: status %d", status)
	}
	var fr *FrontierRecord
	for _, line := range bytes.Split(bytes.TrimSpace(body), []byte("\n")) {
		var probe struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatalf("malformed NDJSON line %q: %v", line, err)
		}
		if probe.Type == "frontier" {
			fr = new(FrontierRecord)
			if err := json.Unmarshal(line, fr); err != nil {
				t.Fatal(err)
			}
		}
	}
	if fr == nil {
		t.Fatalf("pareto stream carries no frontier record:\n%s", body)
	}
	if len(fr.Points) == 0 {
		t.Fatal("frontier record has no points")
	}
	selected := 0
	for _, pt := range fr.Points {
		if pt.Selected {
			selected++
		}
	}
	if selected == 0 {
		t.Fatal("no frontier point is flagged selected")
	}
}

// TestServiceObjectiveValidation pins the clear-error contract for
// objective parameters: unsupported objective/engine pairs, unknown
// names, and missing budgets are 400s naming the valid combinations —
// never a silent fallback or a deep engine error.
func TestServiceObjectiveValidation(t *testing.T) {
	dfg := kernelDFG(t, kernels.Conven00())
	srv := NewServer(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for name, tc := range map[string]struct {
		query    string
		wantSub  string
		wantCode int
	}{
		"pareto with exact":     {"?algo=exact&objective=pareto", "valid pairs", http.StatusBadRequest},
		"area with genetic":     {"?algo=genetic&objective=area", "valid pairs", http.StatusBadRequest},
		"unknown objective":     {"?objective=speedup", "unknown objective", http.StatusBadRequest},
		"latency without bound": {"?objective=latency", "latency_budget", http.StatusBadRequest},
		"bad class weights":     {"?objective=class&class_weights=memory", "class=weight", http.StatusBadRequest},
		"unknown class name":    {"?objective=class&class_weights=memoy=0.5", "unknown block class", http.StatusBadRequest},
		"orphan budget":         {"?latency_budget=2", "only read by objective \\\"latency\\\"", http.StatusBadRequest},
		"orphan gate penalty":   {"?objective=merit&gate_penalty=5", "only read by objective \\\"area\\\"", http.StatusBadRequest},
		"orphan class weights":  {"?class_weights=memory=0.5", "only read by objective \\\"class\\\"", http.StatusBadRequest},
		"NaN gate penalty":      {"?objective=area&gate_penalty=NaN", "finite", http.StatusBadRequest},
		"Inf class weight":      {"?objective=class&class_weights=memory=Inf", "finite", http.StatusBadRequest},
		"merit with exact ok":   {"?algo=exact&objective=merit", "", http.StatusOK},
	} {
		t.Run(name, func(t *testing.T) {
			status, body := postSelect(t, ts, dfg, tc.query)
			if status != tc.wantCode {
				t.Fatalf("status %d (%s), want %d", status, body, tc.wantCode)
			}
			if tc.wantSub != "" && !strings.Contains(string(body), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", body, tc.wantSub)
			}
		})
	}
}

// TestServiceRepeatedUploadCacheHits pins the acceptance criterion: a
// second identical request reports >= 90% cost-cache hits on the metrics
// endpoint, because the persistent cache keys blocks by content hash
// rather than pointer identity.
func TestServiceRepeatedUploadCacheHits(t *testing.T) {
	dfg := kernelDFG(t, kernels.Fbital00())
	srv := NewServer(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	status, first := postSelect(t, ts, dfg, "")
	if status != http.StatusOK {
		t.Fatalf("first request: status %d", status)
	}
	m1 := fetchMetrics(t, ts)
	if m1.Cache.Misses == 0 {
		t.Fatal("first request cost nothing; test is vacuous")
	}

	status, second := postSelect(t, ts, dfg, "")
	if status != http.StatusOK {
		t.Fatalf("second request: status %d", status)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("identical requests streamed different results")
	}
	m2 := fetchMetrics(t, ts)

	dh := m2.Cache.Hits - m1.Cache.Hits
	dm := m2.Cache.Misses - m1.Cache.Misses
	if dh+dm == 0 {
		t.Fatal("second request did no cache lookups")
	}
	rate := float64(dh) / float64(dh+dm)
	if rate < 0.9 {
		t.Fatalf("second identical request hit rate %.3f (%d hits / %d misses), want >= 0.9", rate, dh, dm)
	}
	if m2.Cache.LastJobRate < 0.9 {
		t.Fatalf("last_job_hit_rate %.3f, want >= 0.9", m2.Cache.LastJobRate)
	}
	if st := m2.Queue; st.Completed != 2 || st.Rejected != 0 {
		t.Fatalf("queue stats %+v, want 2 completed, 0 rejected", st)
	}
}

// TestServicePersistentCacheAcrossRestart exercises the disk store: a new
// server over the same cache directory serves a repeated upload almost
// entirely from persisted costings.
func TestServicePersistentCacheAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	dfg := kernelDFG(t, kernels.Fbital00())

	serve := func() (streamed []byte, m Metrics) {
		store, err := search.NewStore(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		srv := NewServer(Config{Cache: search.NewPersistentCostCache(store)})
		defer srv.Close()
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		status, body := postSelect(t, ts, dfg, "")
		if status != http.StatusOK {
			t.Fatalf("status %d", status)
		}
		return body, fetchMetrics(t, ts)
	}

	first, m1 := serve()
	if m1.Cache.Misses == 0 {
		t.Fatal("cold run computed nothing")
	}
	if m1.Cache.Store == nil || m1.Cache.Store.Saves == 0 {
		t.Fatalf("store metrics %+v, want saves > 0", m1.Cache.Store)
	}

	second, m2 := serve() // fresh server, fresh cache, same directory
	if !bytes.Equal(first, second) {
		t.Fatal("restart changed the streamed result")
	}
	if m2.Cache.Misses != 0 {
		t.Fatalf("post-restart run recomputed %d costings, want 0 (disk-served)", m2.Cache.Misses)
	}
	if m2.Cache.LastJobRate < 0.9 {
		t.Fatalf("post-restart last_job_hit_rate %.3f, want >= 0.9", m2.Cache.LastJobRate)
	}
}

func TestServiceRejectsBadRequests(t *testing.T) {
	srv := NewServer(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	dfg := kernelDFG(t, kernels.Conven00())

	for name, tc := range map[string]struct {
		query, body string
		wantStatus  int
	}{
		"unknown algo":   {"?algo=quantum", string(dfg), http.StatusBadRequest},
		"bad nise":       {"?nise=zero", string(dfg), http.StatusBadRequest},
		"negative ports": {"?in=-1", string(dfg), http.StatusBadRequest},
		"garbage body":   {"", "not a dfg", http.StatusBadRequest},
	} {
		t.Run(name, func(t *testing.T) {
			status, body := postSelect(t, ts, []byte(tc.body), tc.query)
			if status != tc.wantStatus {
				t.Fatalf("status %d (%s), want %d", status, body, tc.wantStatus)
			}
			var rec map[string]string
			if err := json.Unmarshal(body, &rec); err != nil || rec["error"] == "" {
				t.Fatalf("error body %q not a JSON error record", body)
			}
		})
	}

	// Oversized uploads get 413, not a misleading parse error — and
	// never a silently truncated parse (dfgio surfaces read failures).
	big := NewServer(Config{MaxBodyBytes: 64})
	defer big.Close()
	bigTS := httptest.NewServer(big.Handler())
	defer bigTS.Close()
	if status, body := postSelect(t, bigTS, kernelDFG(t, kernels.Fbital00()), ""); status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized upload: status %d (%s), want 413", status, body)
	}

	if resp, err := http.Get(ts.URL + "/v1/select"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET status %d, want 405", resp.StatusCode)
		}
	}
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("healthz status %d", resp.StatusCode)
		}
	}
}

// TestServicePerBlockSkipsOversizedBlocks pins the skip contract: an exact
// engine sweep over an application with a block beyond its node limit
// still succeeds, marking the oversized block rather than failing the job.
func TestServicePerBlockSkipsOversizedBlocks(t *testing.T) {
	app := kernels.FFT00() // critical block (104 nodes) > iterative limit (100)
	dfg := kernelDFG(t, app)
	srv := NewServer(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	status, body := postSelect(t, ts, dfg, "?algo=iterative&nise=2")
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var skipped int
	for _, line := range bytes.Split(bytes.TrimSpace(body), []byte("\n")) {
		var rec BlockResult
		if err := json.Unmarshal(line, &rec); err == nil && rec.Type == "block" && rec.Skipped != "" {
			skipped++
			if !strings.Contains(rec.Skipped, "node limit") {
				t.Fatalf("skip note %q lacks reason", rec.Skipped)
			}
		}
	}
	if skipped == 0 {
		t.Fatal("no block was marked skipped; expected the 104-node FFT block")
	}
}

// TestServiceStreamsProgressively verifies blocks arrive before the job
// finishes: with a multi-block per-block sweep, the first block record
// must be readable from the stream while later blocks may still be
// running. (Bounded by the full response for robustness on 1-CPU runners.)
func TestServiceStreamsProgressively(t *testing.T) {
	app := kernels.ADPCMCoder()
	dfg := kernelDFG(t, app)
	srv := NewServer(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/select?algo=genetic&nise=2", "text/plain", bytes.NewReader(dfg))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	dec := json.NewDecoder(resp.Body)
	var rec BlockResult
	if err := dec.Decode(&rec); err != nil {
		t.Fatalf("decoding first streamed record: %v", err)
	}
	if rec.Type != "block" || rec.Block != 0 {
		t.Fatalf("first record %+v, want block 0", rec)
	}
	if rec.Hash == "" {
		t.Fatal("block record carries no content hash")
	}
	// Drain the rest; the stream must stay well-formed NDJSON.
	count := 1
	for {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("record %d: %v", count, err)
		}
		count++
	}
	if want := len(app.Blocks) + 1; count != want {
		t.Fatalf("%d records, want %d", count, want)
	}
}

// TestRunZeroWeightApplication pins the degenerate-input behavior of Run
// itself: an application whose blocks all have freq 0 has no dynamic
// weight. dfgio.ParseApplication rejects such input, but one built in code
// can still reach Run; the evaluator then rejects it with a clear error —
// and never a JSON-encoding failure (the summary's ratio fields are
// additionally NaN/Inf-guarded by finiteOrZero).
func TestRunZeroWeightApplication(t *testing.T) {
	const text = "dfg z\nfreq 0\ninputs 2\n0 add i0 i1\n1 mul n0 i1 !out\n"
	blk, err := dfgio.Parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	app := &ir.Application{Name: "z", Blocks: []*ir.Block{blk}}
	var records []any
	err = Run(context.Background(), app, DefaultParams(), search.NewCostCache(), func(v any) error {
		records = append(records, v)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "not positive") {
		t.Fatalf("Run err = %v, want the evaluator's zero-weight rejection", err)
	}
	if strings.Contains(err.Error(), "unsupported value") {
		t.Fatalf("Run err = %v leaked a JSON encoding failure", err)
	}
	// The isegen flow evaluates inside GenerateContext, so it fails
	// before any record; every streamed record (if any) must still be a
	// block record, never a malformed summary.
	for _, rec := range records {
		if _, ok := rec.(*BlockResult); !ok {
			t.Fatalf("streamed %T for a rejected application, want only *BlockResult", rec)
		}
	}
}

// TestServiceRejectsZeroWeightUpload: an upload with no dynamic weight
// (every block at freq 0) is a 400 from the parser, before any stream
// bytes are committed — not a 200 whose stream ends in an error record.
func TestServiceRejectsZeroWeightUpload(t *testing.T) {
	srv := NewServer(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	var zero bytes.Buffer
	for _, line := range strings.SplitAfter(string(kernelDFG(t, kernels.Fbital00())), "\n") {
		if strings.HasPrefix(line, "freq ") {
			line = "freq 0\n"
		}
		zero.WriteString(line)
	}
	for _, algo := range []string{"isegen", "exact"} {
		status, body := postSelect(t, ts, zero.Bytes(), "?algo="+algo)
		if status != http.StatusBadRequest {
			t.Fatalf("algo %s: status %d (%s), want 400", algo, status, body)
		}
		if bytes.Contains(body, []byte(`"type":"error"`)) || !bytes.Contains(body, []byte("no dynamic weight")) {
			t.Fatalf("algo %s: body %s, want the parser's rejection and no stream error record", algo, body)
		}
	}
}

func TestFiniteOrZero(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if got := finiteOrZero(v); got != 0 {
			t.Fatalf("finiteOrZero(%g) = %g, want 0", v, got)
		}
	}
	if got := finiteOrZero(2.5); got != 2.5 {
		t.Fatalf("finiteOrZero(2.5) = %g", got)
	}
}

// TestRunEmitErrorAborts pins the disconnect path: when the emitter fails
// (client gone), Run returns the emit error without wedging the fan-out.
func TestRunEmitErrorAborts(t *testing.T) {
	app := kernels.Fbital00()
	boom := fmt.Errorf("client went away")
	calls := 0
	err := Run(context.Background(), app, func() Params {
		p := DefaultParams()
		p.Algo = "genetic"
		return p
	}(), search.NewCostCache(), func(v any) error {
		calls++
		return boom
	})
	if err == nil || !strings.Contains(err.Error(), "client went away") {
		t.Fatalf("err = %v, want emit error", err)
	}
	if calls != 1 {
		t.Fatalf("emit called %d times after failing, want 1", calls)
	}
}

// TestServiceSubtreeWorkersParam pins the new in-block parallelism knobs
// end to end: subtree_workers/split_depth leave the exact engines' NDJSON
// stream bit-identical (only wall-clock may change), the served stream
// matches the offline path, and the orphan-knob validation rejects the
// parameters for engines that do not read them.
func TestServiceSubtreeWorkersParam(t *testing.T) {
	dfg := kernelDFG(t, kernels.Fbital00())
	srv := NewServer(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	seqP := DefaultParams()
	seqP.Algo = "iterative"
	seq := offlineNDJSON(t, dfg, seqP)

	for _, q := range []string{
		"?algo=iterative&subtree_workers=4",
		"?algo=iterative&subtree_workers=4&split_depth=3",
		"?algo=iterative&subtree_workers=-1",
	} {
		status, got := postSelect(t, ts, dfg, q)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", q, status, got)
		}
		if !bytes.Equal(got, seq) {
			t.Fatalf("%s: stream differs from the single-threaded run\ngot:\n%s\nwant:\n%s", q, got, seq)
		}
	}

	// Orphan knobs: engines that never read them reject them up front.
	for _, q := range []string{
		"?subtree_workers=4",              // default algo isegen
		"?algo=genetic&split_depth=2",     // genetic has no subtree search
		"?algo=iterative&max_frontier=10", // max_frontier needs pareto
		"?algo=iterative&subtree_workers=-2",
	} {
		if status, body := postSelect(t, ts, dfg, q); status != http.StatusBadRequest {
			t.Fatalf("%s: status %d (%s), want 400", q, status, body)
		}
	}
}

// TestServiceMaxFrontierParam: max_frontier bounds the pareto frontier
// record, bit-identically to the offline path.
func TestServiceMaxFrontierParam(t *testing.T) {
	dfg := kernelDFG(t, kernels.Fbital00())
	srv := NewServer(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	p := DefaultParams()
	p.Objective, p.MaxFrontier = "pareto", 2
	want := offlineNDJSON(t, dfg, p)
	status, got := postSelect(t, ts, dfg, "?objective=pareto&max_frontier=2")
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("served bounded-frontier stream differs from offline\ngot:\n%s\nwant:\n%s", got, want)
	}
	var fr FrontierRecord
	found := false
	for _, line := range bytes.Split(bytes.TrimSpace(got), []byte("\n")) {
		if bytes.Contains(line, []byte(`"frontier"`)) {
			if err := json.Unmarshal(line, &fr); err != nil {
				t.Fatal(err)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("no frontier record in pareto stream")
	}
	if len(fr.Points) == 0 || len(fr.Points) > 2 {
		t.Fatalf("bounded frontier record has %d points, want 1..2", len(fr.Points))
	}
}

// TestServiceMetricsStoreEvictionPressure pins the /v1/metrics surface for
// the persistent store's eviction-pressure fields: the raw JSON must carry
// the documented keys (backward-compatibly alongside the existing counter
// fields), and a store squeezed under a tiny byte cap must report
// evictions with their byte volume and a bounded current size.
func TestServiceMetricsStoreEvictionPressure(t *testing.T) {
	store, err := search.NewStore(t.TempDir(), 1) // 1-byte cap: every save overflows
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(Config{Cache: search.NewPersistentCostCache(store)})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Two structurally different uploads: the second flush must evict the
	// first upload's entries (the just-saved key is exempt, so each save
	// survives until the next one lands).
	for _, app := range []func() *ir.Application{kernels.Conven00, kernels.Fbital00} {
		if status, body := postSelect(t, ts, kernelDFG(t, app()), ""); status != http.StatusOK {
			t.Fatalf("status %d: %s", status, body)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	// Wire-level compatibility: the pre-existing keys must still be
	// present, and the new pressure keys must appear under cache.store.
	var doc struct {
		Cache struct {
			Hits  *int64                     `json:"hits"`
			Store map[string]json.RawMessage `json:"store"`
		} `json:"cache"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("metrics JSON: %v\n%s", err, raw)
	}
	if doc.Cache.Hits == nil {
		t.Fatalf("metrics lost the cache.hits field:\n%s", raw)
	}
	for _, key := range []string{"loads", "load_hits", "saves", "evictions", "bytes_evicted", "current_bytes", "max_bytes"} {
		if _, ok := doc.Cache.Store[key]; !ok {
			t.Errorf("metrics cache.store missing %q:\n%s", key, raw)
		}
	}

	m := fetchMetrics(t, ts)
	st := m.Cache.Store
	if st == nil {
		t.Fatal("no store stats on a persistent-cache server")
	}
	if st.Saves < 2 {
		t.Fatalf("store stats %+v, want >= 2 saves", st)
	}
	if st.Evictions == 0 || st.BytesEvicted <= 0 {
		t.Fatalf("store stats %+v, want eviction pressure reported", st)
	}
	if st.MaxBytes != 1 {
		t.Fatalf("store stats report max_bytes %d, want the configured 1", st.MaxBytes)
	}
	if st.CurrentBytes < 0 {
		t.Fatalf("store stats report negative current_bytes: %+v", st)
	}
}
