package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/dfgio"
	"repro/internal/obs"
	"repro/internal/search"
	"repro/internal/service"
)

// Layer keys under which span self time accumulates.
const (
	layerTrajectory = "trajectory"
	layerSearch     = "search"
	layerSubtree    = "subtree"
	layerEngine     = "engine"
	layerGenetic    = "genetic"
	layerRacingKL   = "racing-kl"
	layerParse      = "parse"
	layerEncode     = "encode"
	layerStore      = "store"
	layerRun        = "run" // whole duration of service.Run, not self time
)

// traceAcc accumulates traced jobs: span self time per layer, the
// program's own counters, and what the benchmark measures around its
// calls.
type traceAcc struct {
	mu          sync.Mutex
	jobs        int
	ms          map[string]float64
	counters    obs.CounterSnapshot
	hits, miss  int64
	drops       int64
	streamBytes int64
	summaryMs   float64
	// genetic holds the standalone GA replay's per-pass means
	// (kernels-racing only; see replayGenetic).
	genetic *geneticPass
}

type geneticPass struct{ ms, generations, evaluations float64 }

func newTraceAcc() *traceAcc { return &traceAcc{ms: map[string]float64{}} }

// addJob folds one traced job in.
func (t *traceAcc) addJob(rec *obs.Recorder, hits, misses int64, streamBytes int, summary time.Duration) {
	self := selfTimes(rec.Spans())
	t.mu.Lock()
	defer t.mu.Unlock()
	t.jobs++
	for k, v := range self {
		t.ms[k] += v
	}
	t.counters.Add(rec.Counters())
	t.hits += hits
	t.miss += misses
	t.drops += rec.Dropped()
	t.streamBytes += int64(streamBytes)
	t.summaryMs += ms(summary)
}

// perJob returns the layer's mean milliseconds per traced job.
func (t *traceAcc) perJob(layer string) float64 { return t.ms[layer] / float64(max(t.jobs, 1)) }

// selfTimes sums span self time in milliseconds per layer key. A span's
// self time is its duration minus the part of it its children cover
// (children running in parallel are merged, not double-counted); the run
// span reports its whole duration.
func selfTimes(spans []obs.Span) map[string]float64 {
	byID := make(map[obs.SpanID]obs.Span, len(spans))
	kids := map[obs.SpanID][]obs.Span{}
	for _, s := range spans {
		byID[s.ID] = s
		if s.Parent != 0 && s.EndNs != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		if s.EndNs == 0 {
			continue
		}
		dur := s.EndNs - s.StartNs
		self := float64(dur-covered(s, kids[s.ID])) / 1e6
		switch s.Kind {
		case obs.KindTrajectory:
			out[layerTrajectory] += self
		case obs.KindSearch:
			out[layerSearch] += self
		case obs.KindSubtree:
			out[layerSubtree] += self
		case obs.KindEngine:
			out[layerEngine] += self
			parent := byID[s.Parent]
			switch {
			case s.Name == "Genetic":
				out[layerGenetic] += float64(dur) / 1e6
			case s.Name == "ISEGEN" && parent.Kind == obs.KindEngine && parent.Name == "Racing":
				out[layerRacingKL] += float64(dur) / 1e6
			}
		case kindParse:
			out[layerParse] += self
		case kindEncode:
			out[layerEncode] += self
		case kindStore:
			out[layerStore] += self
		case kindRun:
			out[layerRun] += float64(dur) / 1e6
		}
	}
	return out
}

// covered returns how many nanoseconds of the parent's interval the union
// of the children's intervals covers.
func covered(parent obs.Span, kids []obs.Span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.StartNs, parent.StartNs), min(k.EndNs, parent.EndNs)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	return total + curHi - curLo
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerValues builds every per-layer metric from the traced jobs in acc
// (span self times, and the counters unless served supplies them), the
// untraced window (runtime cost, trace overhead) and, for served
// workloads, the server's metrics deltas.
func layerValues(acc *traceAcc, untraced, traced *windowResult, sv *servedDelta) map[string]float64 {
	jobs := float64(max(acc.jobs, 1))
	c := acc.counters
	hits, lookups := float64(acc.hits), float64(acc.hits+acc.miss)
	drops := float64(acc.drops) / jobs
	cjobs := jobs
	if sv != nil {
		c, hits, lookups = sv.counters, float64(sv.cacheHits), float64(sv.cacheHits+sv.cacheMisses)
		cjobs = float64(max(sv.jobs, 1))
		drops = float64(sv.spanDrops) / cjobs
	}
	per := func(ctr obs.Counter) float64 { return float64(c.Get(ctr)) / cjobs }
	ujobs := float64(max(len(untraced.latMs), 1))
	v := map[string]float64{
		"core.trajectory_ms":        acc.perJob(layerTrajectory),
		"core.toggles":              per(obs.KLToggles),
		"core.probes":               per(obs.KLProbes),
		"core.probes_per_toggle":    ratio(float64(c.Get(obs.KLProbes)), float64(c.Get(obs.KLToggles))),
		"core.gaincache_hit_ratio":  ratio(float64(c.Get(obs.KLGainCacheHits)), float64(c.Get(obs.KLGainCacheHits)+c.Get(obs.KLGainCacheMisses))),
		"core.gain_rebuilds":        per(obs.KLGainRebuilds),
		"core.cp_full_sweeps":       per(obs.KLCPFullSweeps),
		"core.pool_hit_ratio":       ratio(float64(c.Get(obs.KLPoolHits)), float64(c.Get(obs.KLPoolHits)+c.Get(obs.KLPoolMisses))),
		"exact.search_ms":           acc.perJob(layerSearch),
		"exact.subtree_ms":          acc.perJob(layerSubtree),
		"exact.explored":            per(obs.ExactExplored),
		"exact.prune_ratio":         ratio(float64(c.Get(obs.ExactLocalPrunes)+c.Get(obs.ExactSharedPrunes)), float64(c.Get(obs.ExactExplored))),
		"exact.bound_raises":        per(obs.ExactBoundRaises),
		"genetic.engine_ms":         acc.perJob(layerGenetic),
		"genetic.evaluations":       per(obs.GeneticEvaluations),
		"genetic.generations":       per(obs.GeneticGenerations),
		"racing.kl_engine_ms":       acc.perJob(layerRacingKL),
		"racing.seed_publications":  per(obs.RacingSeeds),
		"search.engine_ms":          acc.perJob(layerEngine),
		"search.cache_hit_ratio":    ratio(hits, lookups),
		"search.cache_lookups":      lookups / cjobs,
		"search.store_flush_ms":     acc.perJob(layerStore),
		"dfgio.parse_ms":            acc.perJob(layerParse),
		"service.run_ms":            acc.perJob(layerRun),
		"service.encode_ms":         acc.perJob(layerEncode),
		"service.summary_ms":        acc.summaryMs / jobs,
		"service.stream_bytes":      float64(acc.streamBytes) / jobs,
		"runtime.allocs_per_job":    float64(untraced.mallocs) / ujobs,
		"runtime.alloc_mb_per_job":  float64(untraced.allocB) / (1 << 20) / ujobs,
		"runtime.gc_cycles_per_job": float64(untraced.gcs) / ujobs,
		"obs.trace_overhead_frac":   1 - ratio(traced.jobsPerSec(), untraced.jobsPerSec()),
		"obs.span_drops":            drops,
	}
	if g := acc.genetic; g != nil {
		v["genetic.engine_ms"], v["genetic.generations"], v["genetic.evaluations"] = g.ms, g.generations, g.evaluations
	}
	// The store and the server-side times exist on the served path only.
	for _, k := range []string{"search.store_saves", "search.store_load_hit_ratio", "search.store_bytes", "service.queue_wait_ms", "service.http_ms"} {
		v[k] = 0
	}
	if sv != nil {
		v["search.store_saves"] = float64(sv.saves) / cjobs
		v["search.store_load_hit_ratio"] = ratio(float64(sv.loadHits), float64(sv.loads))
		v["search.store_bytes"] = float64(sv.storeBytes)
		v["service.queue_wait_ms"] = sv.queueWaitMs
		v["service.run_ms"] = sv.runMs
		v["service.http_ms"] = mean(traced.latMs) - sv.queueWaitMs - sv.runMs
	}
	return v
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// servedDelta is what the server's /v1/metrics reports over a traced
// window.
type servedDelta struct {
	jobs                   int64
	counters               obs.CounterSnapshot
	cacheHits, cacheMisses int64
	loads, loadHits, saves int64
	storeBytes             int64
	spanDrops              int64
	queueWaitMs, runMs     float64
}

func diffMetrics(a, b service.Metrics) *servedDelta {
	d := &servedDelta{
		jobs:        b.Queue.Completed - a.Queue.Completed,
		cacheHits:   b.Cache.Hits - a.Cache.Hits,
		cacheMisses: b.Cache.Misses - a.Cache.Misses,
		spanDrops:   b.Search.SpanDrops - a.Search.SpanDrops,
	}
	for _, ctr := range obs.AllCounters() {
		d.counters[ctr] = b.Search.Counters[ctr.String()] - a.Search.Counters[ctr.String()]
	}
	if a.Cache.Store != nil && b.Cache.Store != nil {
		d.loads = b.Cache.Store.Loads - a.Cache.Store.Loads
		d.loadHits = b.Cache.Store.LoadHits - a.Cache.Store.LoadHits
		d.saves = b.Cache.Store.Saves - a.Cache.Store.Saves
		d.storeBytes = b.Cache.Store.CurrentBytes
	}
	histMean := func(x, y map[string]obs.HistogramSnapshot) float64 {
		var sum float64
		var n int64
		for k, h := range y {
			sum += h.SumSeconds - x[k].SumSeconds
			n += h.Count - x[k].Count
		}
		return 1000 * ratio(sum, float64(n))
	}
	d.queueWaitMs = histMean(a.Search.QueueWaitSeconds, b.Search.QueueWaitSeconds)
	d.runMs = histMean(a.Search.LatencySeconds, b.Search.LatencySeconds)
	return d
}

// traceWorkload is the traced run: one set-up, an untraced window, a
// traced window and, where the traced window cannot see a layer, a
// replay that times that layer's calls from outside. It reports every
// per-layer metric.
func traceWorkload(out io.Writer, w *workload, perLayer []specMetric, seed int64, window time.Duration, dir string) (result, error) {
	fx, err := w.setup(seed, window.Seconds(), dir)
	if err != nil {
		return result{}, err
	}
	untraced, err := runWindow(w, fx, window, dir, false, nil)
	if err != nil {
		return result{}, err
	}
	acc := newTraceAcc()
	var traced *windowResult
	var sv *servedDelta
	replayed := &windowResult{}
	if w.served {
		traced, sv, err = traceServed(fx, window, dir)
		if err != nil {
			return result{}, err
		}
		// The server's spans stay inside the server; a single-caller
		// replay of the same sequence through parse → service.Run →
		// Flush over a server-shaped cache splits the time by layer.
		replayed, err = replay(fx, window/2, dir, acc)
	} else {
		traced, err = runWindow(w, fx, window, dir, false, acc)
		if err == nil && w.name == "kernels-racing" {
			err = replayGenetic(fx, window/4, acc)
		}
	}
	if err != nil {
		return result{}, err
	}
	vals := layerValues(acc, untraced, traced, sv)
	res := result{Metrics: map[string]metric{}}
	var rows []row
	for _, lm := range perLayer {
		v, ok := vals[lm.Name]
		if !ok {
			return result{}, fmt.Errorf("BENCHMARK.json names per-layer metric %q, which the trace does not measure", lm.Name)
		}
		m := metric{v, lm.Unit}
		res.Metrics[lm.Name] = m
		rows = append(rows, row{lm.Name, m, ""})
	}
	for _, win := range []*windowResult{untraced, traced, replayed} {
		res.Attempted += win.attempted
		res.Failed += win.failed
	}
	res.Correct = res.Failed == 0
	source := fmt.Sprintf("spans and counters from n=%d traced jobs", acc.jobs)
	if sv != nil {
		source = fmt.Sprintf("spans from n=%d replayed jobs, counters and service times from n=%d served jobs", acc.jobs, sv.jobs)
	}
	printTable(out, fmt.Sprintf("workload %s per-layer trace (seed %d, %v windows; untraced n=%d, traced n=%d jobs; %s; %d failed)",
		w.name, seed, window, len(untraced.latMs), len(traced.latMs), source, res.Failed), rows)
	return res, nil
}

// traceServed runs a window against a fresh server and returns the
// server-side metrics deltas over it.
func traceServed(fx *fixture, d time.Duration, dir string) (*windowResult, *servedDelta, error) {
	srv, err := startServer(fx, dir)
	if err != nil {
		return nil, nil, err
	}
	before, err := srv.metrics()
	if err != nil {
		srv.close()
		return nil, nil, err
	}
	win := closedLoop(fx, servedCallers, d, srv.post)
	after, err := srv.metrics()
	if cerr := srv.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, nil, err
	}
	return win, diffMetrics(before, after), nil
}

// replay sends the served request sequence single-caller through the
// offline path over a server-shaped cache (content keyed, disk store:
// fresh for served-new, the pre-filled one for served-repeat), tracing
// each job.
func replay(fx *fixture, d time.Duration, dir string, acc *traceAcc) (*windowResult, error) {
	storeDir := fx.storeDir
	if storeDir == "" {
		var err error
		if storeDir, err = os.MkdirTemp(dir, "replay-store-"); err != nil {
			return nil, err
		}
	}
	store, err := search.NewStore(storeDir, 0)
	if err != nil {
		return nil, err
	}
	cache := search.NewPersistentCostCache(store)
	job := &offlineJob{params: fx.params, newCache: func() *search.CostCache { return cache }, tr: acc}
	return closedLoop(fx, 1, d, func(_, _ int, req *request) ([]byte, error) { return job.run(req) }), nil
}

// replayGenetic times the genetic layer from outside. Inside a racing job
// the GA racer records neither spans nor counters, so each pass runs the
// registry's "genetic" engine (the racer's options: seed 1, the job's
// limits) on every block the racing job races, traced, until d elapses.
// Its time is the GA run to completion, an upper bound on what the racer
// spends before the exact proof cancels it.
func replayGenetic(fx *fixture, d time.Duration, acc *traceAcc) error {
	app, err := dfgio.ParseApplication("genetic", bytes.NewReader(fx.reqs[0].dfg))
	if err != nil {
		return err
	}
	p := fx.params
	lim := &search.Limits{MaxIn: p.MaxIn, MaxOut: p.MaxOut, NISE: p.NISE,
		NodeLimit: search.DefaultNodeLimit(p.Algo), Budget: search.DefaultBudget, Workers: 1}
	var gaMs, gens, evals float64
	passes := 0
	for t0 := time.Now(); passes == 0 || time.Since(t0) < d; passes++ {
		rec := obs.NewRecorder(obs.DefaultSpanCap)
		ctx := obs.WithRecorder(context.Background(), rec)
		eng, err := search.New("genetic", search.NewCostCache())
		if err != nil {
			return err
		}
		eng.(interface{ SetSeed(int64) }).SetSeed(1) // the GA racer's fixed seed
		obj := search.Merit(oracleModel)
		for _, blk := range app.Blocks {
			if blk.N() > lim.NodeLimit {
				continue
			}
			if _, _, err := eng.RunContext(ctx, blk, obj, lim); err != nil {
				return err
			}
		}
		gaMs += selfTimes(rec.Spans())[layerGenetic]
		c := rec.Counters()
		gens += float64(c.Get(obs.GeneticGenerations))
		evals += float64(c.Get(obs.GeneticEvaluations))
	}
	np := float64(passes)
	acc.mu.Lock()
	acc.genetic = &geneticPass{ms: gaMs / np, generations: gens / np, evaluations: evals / np}
	acc.mu.Unlock()
	return nil
}
