package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/dfggen"
	"repro/internal/dfgio"
	"repro/internal/ir"
	"repro/internal/kernels"
	"repro/internal/search"
	"repro/internal/service"
)

// workload is one fixed, seeded request sequence.
type workload struct {
	name string
	// served workloads go through isegend over HTTP with two tenants;
	// the others are offline `isegen -json` jobs from one caller.
	served bool
	setup  func(seed int64, window float64, dir string) (*fixture, error)
}

// workloads lists every workload in the order `--workload all` runs them.
var workloads = []*workload{
	{name: "aes", setup: setupAES},
	{name: "kernels-racing", setup: setupKernelsRacing},
	{name: "served-new", served: true, setup: setupServedNew},
	{name: "served-repeat", served: true, setup: setupServedRepeat},
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// request is one job input with its set-up reference.
type request struct {
	dfg []byte
	// ref is the deterministic part of the reference stream (see
	// deterministic), computed offline with Workers 1 and a fresh cache.
	ref []byte
	// oracleFailure is the first cut-oracle violation of ref ("" when
	// every selected cut is valid). A stream equal to ref carries the
	// same cuts, so every such job inherits the verdict.
	oracleFailure string
	// exactBlocks holds the block records of an algo=exact run of the
	// same input (racing jobs only); racing must reproduce them.
	exactBlocks []byte
}

// fixture is everything a workload's set-up produces.
type fixture struct {
	params service.Params
	// reqs is the request pool. Offline workloads repeat reqs[0]; the
	// served clients walk it in order, wrapping around only when cycle
	// is set.
	reqs  []request
	cycle bool
	// speedupN is how many leading requests ise_speedup covers, so the
	// metric is the same on every run of one seed.
	speedupN int
	// storeDir is the disk store the server opens (served-repeat:
	// pre-filled by set-up; served-new: empty, one per window).
	storeDir string
}

// Generator shape of the served workloads: the differential suite's
// structural mix at 12-40 nodes per block, so engine work per job is a
// few milliseconds and the serving path is a visible share.
func servedGenParams() dfggen.Params {
	p := dfggen.DefaultParams()
	p.MinNodes, p.MaxNodes = 12, 40
	return p
}

// servedNewPerSecond sizes the served-new pool: distinct applications per
// second of measured window. It exceeds the served throughput on a 2-CPU
// machine (about 200 jobs/s) with room to spare; a window that exhausts
// the pool ends early and is measured over the time it took.
const servedNewPerSecond = 300

// repeatCorpus is the served-repeat corpus size, and speedupPrefix how
// many leading requests ise_speedup covers on served-new. Both are 256 so
// that the geometric mean varies across seeds by a few percent at most
// (over 64 applications its interquartile range was 6% of the median).
const (
	repeatCorpus  = 256
	speedupPrefix = 256
)

func setupAES(seed int64, window float64, dir string) (*fixture, error) {
	p := service.DefaultParams()
	fx := &fixture{params: p, speedupN: 1}
	req, err := newRequest(kernels.AES(), p)
	if err != nil {
		return nil, err
	}
	fx.reqs = []request{req}
	return fx, nil
}

// racingApp merges every block of the Figure 4 kernels whose critical
// block the exact engine accepts into one application, so each racing job
// is one request dominated by the optimality proof.
func racingApp() *ir.Application {
	app := &ir.Application{Name: "kernels_racing"}
	for _, k := range kernels.All() {
		if k.CriticalSize <= search.DefaultNodeLimit("racing") {
			app.Blocks = append(app.Blocks, k.App.Blocks...)
		}
	}
	return app
}

func setupKernelsRacing(seed int64, window float64, dir string) (*fixture, error) {
	p := service.DefaultParams()
	p.Algo = "racing"
	fx := &fixture{params: p, speedupN: 1}
	req, err := newRequest(racingApp(), p)
	if err != nil {
		return nil, err
	}
	ep := p
	ep.Algo = "exact"
	exactRef, err := reference(req.dfg, ep)
	if err != nil {
		return nil, err
	}
	req.exactBlocks = blockRecords(exactRef)
	fx.reqs = []request{req}
	return fx, nil
}

// generate draws n dfggen applications from the seed.
func generate(seed int64, n int) []*ir.Application {
	rng := dfggen.Seeded(seed)
	gp := servedGenParams()
	apps := make([]*ir.Application, n)
	for i := range apps {
		apps[i] = dfggen.Application(rng, gp)
	}
	return apps
}

func setupServedNew(seed int64, window float64, dir string) (*fixture, error) {
	p := service.DefaultParams()
	n := int(window*servedNewPerSecond) + 1
	reqs, err := newRequests(generate(seed, n), p)
	if err != nil {
		return nil, err
	}
	return &fixture{params: p, reqs: reqs, speedupN: min(speedupPrefix, n)}, nil
}

func setupServedRepeat(seed int64, window float64, dir string) (*fixture, error) {
	p := service.DefaultParams()
	apps := generate(seed, repeatCorpus)
	reqs, err := newRequests(apps, p)
	if err != nil {
		return nil, err
	}
	storeDir := filepath.Join(dir, "prefilled-store")
	if err := os.RemoveAll(storeDir); err != nil {
		return nil, err
	}
	if err := prefill(storeDir, reqs, p); err != nil {
		return nil, err
	}
	return &fixture{params: p, reqs: reqs, cycle: true, speedupN: repeatCorpus, storeDir: storeDir}, nil
}

// prefill runs the corpus once through a server-shaped cache (content
// keyed, disk store) and flushes it, so the measured server starts from a
// store holding every costing its jobs need.
func prefill(storeDir string, reqs []request, p service.Params) error {
	store, err := search.NewStore(storeDir, 0)
	if err != nil {
		return err
	}
	cache := search.NewPersistentCostCache(store)
	for _, r := range reqs {
		app, err := dfgio.ParseApplication("prefill", bytes.NewReader(r.dfg))
		if err != nil {
			return err
		}
		if err := service.Run(context.Background(), app, p, cache, func(any) error { return nil }); err != nil {
			return err
		}
	}
	return cache.Flush()
}

// newRequests serializes and references every application, two at a time
// (each reference itself runs with Workers 1).
func newRequests(apps []*ir.Application, p service.Params) ([]request, error) {
	reqs := make([]request, len(apps))
	errs := make([]error, len(apps))
	const lanes = 2
	done := make(chan struct{}, lanes)
	for l := 0; l < lanes; l++ {
		go func(l int) {
			for i := l; i < len(apps); i += lanes {
				reqs[i], errs[i] = newRequest(apps[i], p)
			}
			done <- struct{}{}
		}(l)
	}
	for l := 0; l < lanes; l++ {
		<-done
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("request %d: %w", i, err)
		}
	}
	return reqs, nil
}

// newRequest serializes the application to .dfg text, computes its
// reference stream from that text and checks the reference against the
// cut oracle.
func newRequest(app *ir.Application, p service.Params) (request, error) {
	var buf bytes.Buffer
	if err := dfgio.WriteApplication(&buf, app); err != nil {
		return request{}, err
	}
	req := request{dfg: buf.Bytes()}
	ref, err := reference(req.dfg, p)
	if err != nil {
		return request{}, err
	}
	parsed, err := dfgio.ParseApplication("reference", bytes.NewReader(req.dfg))
	if err != nil {
		return request{}, err
	}
	req.ref = ref
	if problems := oracle(parsed, ref, p); len(problems) > 0 {
		req.oracleFailure = problems[0]
	}
	return req, nil
}

// reference runs one job offline with Workers 1 and a fresh cache and
// returns the deterministic part of its stream.
func reference(dfg []byte, p service.Params) ([]byte, error) {
	app, err := dfgio.ParseApplication("reference", bytes.NewReader(dfg))
	if err != nil {
		return nil, err
	}
	p.Workers = 1
	var buf bytes.Buffer
	if err := service.Run(context.Background(), app, p, search.NewCostCache(), service.NDJSONEmitter(&buf)); err != nil {
		return nil, err
	}
	return deterministic(buf.Bytes()), nil
}
