package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"wroofline/internal/cluster"
	"wroofline/internal/contention"
	"wroofline/internal/core"
	"wroofline/internal/machine"
	"wroofline/internal/plancache"
	"wroofline/internal/serve"
	"wroofline/internal/sim"
	"wroofline/internal/study"
	"wroofline/internal/sweep"
	"wroofline/internal/units"
	"wroofline/internal/wfgen"
	"wroofline/internal/workflow"
	"wroofline/internal/workloads"
)

// The traced run has two phases over one fixed request list.
//
// Phase one sends the list to the workload's entry exactly as the untraced
// run does, with the same checks; its latency and rate (trace.*) less the
// untraced run's are the tracing overhead, and its counter deltas
// (Gate.MetricsSnapshot, Server.MetricsSnapshot, PlanCacheStats) give the
// per-layer counts.
//
// Phase two replays the list at each layer boundary, from this file — no
// span is recorded inside the program:
//
//	gate   wfgate over HTTP (gated workloads)
//	http   each request straight to its owning replica over HTTP
//	serve  the owning replica's Handler().ServeHTTP, in memory
//	study  study.RunCached / RunStreamCached for sweeps, core.Build (via
//	       the plan cache, as the handler does) and Model.Analyze for models
//	sim    the ensemble fan-out rebuilt from public calls: wfgen.Generate,
//	       core.Build, sim.Compile and Plan.RunBatch / RunScalar, with
//	       sweep.Summarizer at every progress snapshot of a stream
//
// Each client takes request i through every boundary in turn, so a drift
// in the host's speed lands on all boundaries alike and the differences
// between them (the self times) stay meaningful. Each boundary has its own
// freshly warmed fleet or cache, so every boundary sees the cache state
// the same request history leaves.

// tracePath is where the spans of a traced run are written, relative to
// the working directory.
const tracePath = ".bench_build/traces"

type span struct {
	Req      int    `json:"req"` // request index; a request's spans share it
	Kind     string `json:"kind"`
	Boundary string `json:"boundary"`
	Parent   string `json:"parent,omitempty"` // the boundary above, which caused it
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// tracer keeps a run's spans in memory until write.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) record(boundary, parent string, outs []outcome) {
	for _, o := range outs {
		s := int64(o.start.Sub(t.t0))
		t.spans = append(t.spans, span{o.i, o.kind, boundary, parent, s, s + int64(o.lat)})
	}
}

func (t *tracer) write(name string, seed uint64) error {
	if err := os.MkdirAll(tracePath, 0o755); err != nil {
		return err
	}
	path := filepath.Join(tracePath, fmt.Sprintf("%s-seed%d.jsonl", name, seed))
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(fh)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			fh.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		fh.Close()
		return err
	}
	return fh.Close()
}

// routeKey is the content address wfgate routes a request by: the
// canonical key, or the raw-body key for a body the canonicalizer rejects,
// and for streams the framing-qualified key.
func routeKey(r request) serve.Key {
	if r.kind == kindFigure {
		return serve.FigureKey(filepath.Base(r.path))
	}
	keyFn := serve.SweepKey
	if r.kind == kindModel {
		keyFn = serve.ModelKey
	}
	k, err := keyFn(r.body)
	if err != nil {
		k = serve.ContentKey("raw-route", r.body)
	}
	if r.kind == kindStream {
		return serve.ContentKey("stream-ndjson", k[:])
	}
	return k
}

// owners maps each request to the replica the gate would send it to.
func owners(f *fleet, seq sequence, n int) []int {
	ring := cluster.NewRing(f.replicaURLs)
	out := make([]int, n)
	for i := range out {
		out[i] = ring.Owner(routeKey(seq.at(i)), nil)
	}
	return out
}

func meanUS(outs []outcome) float64 {
	if len(outs) == 0 {
		return 0
	}
	var sum time.Duration
	for _, o := range outs {
		sum += o.lat
	}
	return float64(sum) / float64(len(outs)) / 1e3
}

func ratio(a, b uint64) float64 {
	if a+b == 0 {
		return 0
	}
	return float64(a) / float64(a+b)
}

// boundary is one layer entry point of phase two.
type boundary struct {
	name, parent string
	do           func(c, i int, r request) (lat time.Duration, err error)
	outs         []outcome
}

// runTraced is the traced run; its metrics are the per-layer ones.
func runTraced(ctx context.Context, w *workload, seed uint64, d time.Duration) (*result, error) {
	seq := sequence{w, seed}
	n := max(1, int(d.Seconds())*w.tracedRounds) * len(w.round)
	tr := &tracer{t0: time.Now()}
	res := newResult()

	// Phase one: the workload's entry, checked like the untraced run.
	f, err := setUp(ctx, w, seq)
	if err != nil {
		return nil, err
	}
	defer f.close()
	v := newVerifier(w, seq)
	cl := [clients]*httpClient{newHTTPClient(), newHTTPClient()}
	defer func() {
		for _, c := range cl {
			c.close()
		}
	}()
	c0 := f.counters()
	top := driveAll(ctx, n, func(c, i int) outcome {
		r := seq.at(i)
		start := time.Now()
		resp, _, err := cl[c].do(ctx, f.entry, r)
		o := outcome{i: i, kind: r.kind, start: start, lat: time.Since(start), err: err}
		if err == nil {
			o.err = v.check(i, r, resp)
		}
		return o
	})
	c1 := f.counters()
	f.close()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tr.record("e2e", "", top)
	fails, err := v.settle(ctx)
	if err != nil {
		return nil, err
	}
	for k := range top {
		if e, ok := fails[top[k].i]; ok && top[k].err == nil {
			top[k].err = e
		}
	}
	res.count(top)
	var lats []time.Duration
	var elapsed time.Duration
	for _, o := range top {
		lats = append(lats, o.lat)
		elapsed = max(elapsed, o.start.Add(o.lat).Sub(top[0].start))
	}
	res.set("trace.latency_p50_ms", float64(percentile(lats, 0.5))/1e6, "ms")
	res.set("trace.throughput_rps", float64(n)/elapsed.Seconds(), "1/s")
	res.set("gate.coalesced", float64(c1.gate.Coalesced+c1.gate.StreamCoalesced-c0.gate.Coalesced-c0.gate.StreamCoalesced), "count")
	res.set("gate.rerouted", float64(c1.gate.Rerouted-c0.gate.Rerouted), "count")
	res.set("gate.upstream_errors", float64(c1.gate.UpstreamErrors-c0.gate.UpstreamErrors), "count")
	res.set("serve.cache_hit_ratio", ratio(c1.hits-c0.hits, c1.misses-c0.misses), "ratio")
	res.set("serve.evaluations", float64(c1.evaluations-c0.evaluations), "count")
	res.set("serve.sheds", float64(c1.sheds-c0.sheds), "count")
	res.set("plancache.hit_ratio", ratio(c1.planHits-c0.planHits, c1.planMisses-c0.planMisses), "ratio")
	res.set("plancache.evictions", float64(c1.planEvictions-c0.planEvictions), "count")
	res.set("study.served_no_progress", float64(v.noProgress.Load()), "count")

	// Phase two: every boundary, request by request.
	var bs []*boundary
	if w.gated {
		fg, err := setUp(ctx, w, seq)
		if err != nil {
			return nil, err
		}
		defer fg.close()
		bs = append(bs, &boundary{name: bGate, do: func(c, i int, r request) (time.Duration, error) {
			start := time.Now()
			_, _, err := cl[c].do(ctx, fg.entry, r)
			return time.Since(start), err
		}})
	}
	fh, err := setUp(ctx, w, seq)
	if err != nil {
		return nil, err
	}
	defer fh.close()
	ownH := owners(fh, seq, n)
	bs = append(bs, &boundary{name: bHTTP, do: func(c, i int, r request) (time.Duration, error) {
		start := time.Now()
		_, _, err := cl[c].do(ctx, fh.replicaURLs[ownH[i]], r)
		return time.Since(start), err
	}})
	fs, err := setUp(ctx, w, seq)
	if err != nil {
		return nil, err
	}
	defer fs.close()
	ownS := owners(fs, seq, n)
	xcache := make([]string, n)
	bs = append(bs, &boundary{name: bServe, do: func(c, i int, r request) (time.Duration, error) {
		lat, xc, err := serveInMemory(fs.replicas[ownS[i]], r)
		xcache[i] = xc
		return lat, err
	}})
	sl := newStudyLayer(w, len(fs.replicas))
	ring := cluster.NewRing(fs.replicaURLs)
	for _, r := range append(append([]request{}, w.warm...), warmRequests(seq)...) {
		if err := sl.eval(ctx, ring.Owner(routeKey(r), nil), r); err != nil {
			return nil, fmt.Errorf("study warm: %w", err)
		}
	}
	sl.reset()
	bs = append(bs, &boundary{name: bStudy, do: func(c, i int, r request) (time.Duration, error) {
		start := time.Now()
		err := sl.eval(ctx, ownS[i], r)
		return time.Since(start), err
	}})
	var sm simLayer
	bs = append(bs, &boundary{name: bSim, do: func(c, i int, r request) (time.Duration, error) {
		start := time.Now()
		err := sm.eval(ctx, r)
		return time.Since(start), err
	}})
	for k, b := range bs {
		b.outs = make([]outcome, n)
		if k > 0 {
			b.parent = bs[k-1].name
		}
	}
	drive(&countDispenser{end: n, ctx: ctx}, func(c, i int) {
		r := seq.at(i)
		for _, b := range bs {
			start := time.Now()
			lat, err := b.do(c, i, r)
			b.outs[i] = outcome{i: i, kind: r.kind, start: start, lat: lat, err: err}
		}
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	by := map[string][]outcome{}
	for _, b := range bs {
		tr.record(b.name, b.parent, b.outs)
		by[b.name] = b.outs
		for _, o := range b.outs {
			if o.err != nil {
				return nil, fmt.Errorf("%s boundary, request %d: %w", b.name, o.i, o.err)
			}
		}
	}

	// Allocation per request at the serve boundary, measured alone: one
	// client replays the requests after the list on the serve fleet.
	m := min(n, 1000)
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := n; i < n+m; i++ {
		r := seq.at(i)
		owner := ring.Owner(routeKey(r), nil)
		if _, _, err := serveInMemory(fs.replicas[owner], r); err != nil {
			return nil, fmt.Errorf("serve allocation pass, request %d: %w", i, err)
		}
	}
	runtime.ReadMemStats(&ms1)

	// Self times: a boundary's mean less the mean of the work it passed
	// down. The serve layer passes down only the requests it evaluated.
	var selfServe time.Duration
	for i, o := range by[bServe] {
		selfServe += o.lat
		if xcache[i] == "cold" {
			selfServe -= by[bStudy][i].lat
		}
	}
	gateSelf := 0.0
	if w.gated {
		gateSelf = meanUS(by[bGate]) - meanUS(by[bHTTP])
	}
	res.set("gate.self_us", gateSelf, "us")
	res.set("http.self_us", meanUS(by[bHTTP])-meanUS(by[bServe]), "us")
	res.set("serve.self_us", float64(selfServe)/float64(n)/1e3, "us")
	res.set("serve.alloc_b_per_req", float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(m), "B")
	sl.report(res)
	sm.report(res)
	if err := tr.write(w.name, seed); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	logf("%s seed %d: traced %d requests; spans in %s", w.name, seed, n, tracePath)
	return res, nil
}

// serveInMemory sends r to a replica's handler in memory and returns the
// handler time and the X-Cache disposition.
func serveInMemory(s *serve.Server, r request) (time.Duration, string, error) {
	req := httptest.NewRequest(r.method(), r.path, bytes.NewReader(r.body))
	if r.kind == kindStream {
		req.Header.Set("Accept", "application/x-ndjson")
	}
	rec := httptest.NewRecorder()
	start := time.Now()
	s.Handler().ServeHTTP(rec, req)
	lat := time.Since(start)
	if rec.Code/100 != 2 {
		return lat, "", fmt.Errorf("status %d", rec.Code)
	}
	return lat, rec.Header().Get("X-Cache"), nil
}

const (
	bGate  = "gate"
	bHTTP  = "http"
	bServe = "serve"
	bStudy = "study"
	bSim   = "sim"
)

// warmRequests lists the warm pass's generated requests.
func warmRequests(seq sequence) []request {
	out := make([]request, seq.w.warmRounds*len(seq.w.round))
	for i := range out {
		out[i] = seq.at(warmBase + i)
	}
	return out
}

// studyLayer evaluates requests at the study and core entry points, the
// calls the serve handler makes on a cache miss.
type studyLayer struct {
	plans []*plancache.Cache

	runs, runNS           atomic.Int64
	streams, ttfrNS, snap atomic.Int64
	noProgress            atomic.Int64
	analyzes, analyzeNS   atomic.Int64
}

func newStudyLayer(w *workload, replicas int) *studyLayer {
	entries := w.planEntries
	if entries == 0 {
		entries = 512 // the serve.Config default
	}
	sl := &studyLayer{}
	for i := 0; i < replicas; i++ {
		sl.plans = append(sl.plans, plancache.New(entries, 16))
	}
	return sl
}

func (sl *studyLayer) reset() {
	for _, a := range []*atomic.Int64{&sl.runs, &sl.runNS, &sl.streams, &sl.ttfrNS, &sl.snap, &sl.noProgress, &sl.analyzes, &sl.analyzeNS} {
		a.Store(0)
	}
}

// eval runs r at the study boundary on the given replica's plan cache. For
// a stream it records the time to the first progress snapshot (the whole
// run when there is none) and the snapshot count.
func (sl *studyLayer) eval(ctx context.Context, replica int, r request) error {
	plans := sl.plans[replica]
	switch r.kind {
	case kindFigure:
		return nil
	case kindModel:
		return sl.model(plans, r.body)
	}
	spec, err := study.ParseSpec(r.body)
	if err != nil {
		return err
	}
	start := time.Now()
	if r.kind == kindStream {
		var ttfr time.Duration
		snaps := 0
		_, err = study.RunStreamCached(ctx, spec, plans, func(study.Progress) {
			if snaps == 0 {
				ttfr = time.Since(start)
			}
			snaps++
		})
		if snaps == 0 {
			ttfr = time.Since(start)
			sl.noProgress.Add(1)
		}
		sl.streams.Add(1)
		sl.ttfrNS.Add(int64(ttfr))
		sl.snap.Add(int64(snaps))
	} else {
		_, err = study.RunCached(ctx, spec, plans)
	}
	sl.runs.Add(1)
	sl.runNS.Add(int64(time.Since(start)))
	return err
}

// model mirrors the handler's model evaluation: a built-in case, or an
// inline workflow built through the plan cache, then Model.Analyze.
func (sl *studyLayer) model(plans *plancache.Cache, body []byte) error {
	var req serve.ModelRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return err
	}
	var (
		model  *core.Model
		points []core.Point
		err    error
	)
	switch {
	case req.Case == "example":
		model, err = workloads.ExampleModel()
	case req.Case != "":
		var cs *workloads.CaseStudy
		if cs, err = workloads.ByName(req.Case); err == nil {
			model, points = cs.Model, cs.Points
		}
	default:
		model, err = inlineModel(plans, &req)
	}
	if err != nil {
		return err
	}
	start := time.Now()
	_, err = model.Analyze(points, req.CurveSamples)
	sl.analyzes.Add(1)
	sl.analyzeNS.Add(int64(time.Since(start)))
	return err
}

// inlineModel returns the built model for an inline workflow from the plan
// cache, building it on a miss, keyed as the handler keys it.
func inlineModel(plans *plancache.Cache, req *serve.ModelRequest) (*core.Model, error) {
	m, err := machine.ByName(req.Machine)
	if err != nil {
		return nil, err
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, req.Workflow); err != nil {
		return nil, err
	}
	key := plancache.ModelKey(m.Name, "", compact.Bytes())
	if v, ok := plans.Get(key); ok {
		return v.(*core.Model), nil
	}
	var wf workflow.Workflow
	if err := json.Unmarshal(req.Workflow, &wf); err != nil {
		return nil, err
	}
	model, err := core.Build(m, &wf, core.BuildOptions{})
	if err != nil {
		return nil, err
	}
	plans.Put(key, model)
	return model, nil
}

func perCall(ns, calls *atomic.Int64) float64 {
	if calls.Load() == 0 {
		return 0
	}
	return float64(ns.Load()) / float64(calls.Load()) / 1e3
}

func (sl *studyLayer) report(res *result) {
	res.set("study.run_us", perCall(&sl.runNS, &sl.runs), "us")
	res.set("study.stream_ttfr_us", perCall(&sl.ttfrNS, &sl.streams), "us")
	snaps := 0.0
	if s := sl.streams.Load(); s > 0 {
		snaps = float64(sl.snap.Load()) / float64(s)
	}
	res.set("study.stream_snapshots", snaps, "count")
	res.set("study.stream_no_progress", float64(sl.noProgress.Load()), "count")
	res.set("core.analyze_us", perCall(&sl.analyzeNS, &sl.analyzes), "us")
}

// simLayer replays the work below study with no cache: the same fan-out
// the study runners do, timed call by call.
type simLayer struct {
	generates, generateNS atomic.Int64
	builds, buildNS       atomic.Int64
	compiles, compileNS   atomic.Int64
	analytic              atomic.Int64
	trials, batchNS       atomic.Int64
	spanPlans, spans      atomic.Int64
	summaries, summaryNS  atomic.Int64
}

func timed(calls, ns *atomic.Int64, start time.Time) {
	calls.Add(1)
	ns.Add(int64(time.Since(start)))
}

// compiled counts a compiled plan and the spans one full trial of it
// records.
func (sm *simLayer) compiled(p *sim.Plan) error {
	if p.Analytic() {
		sm.analytic.Add(1)
	}
	res, err := p.Run(sim.Trial{})
	if err != nil {
		return err
	}
	sm.spanPlans.Add(1)
	sm.spans.Add(int64(res.Recorder.Len()))
	return nil
}

// progress mirrors study's snapshot schedule (the first frontier advance,
// then one per total/64 trials, never at total) and times the summary of
// each snapshot's prefix.
func (sm *simLayer) progress(total int) func(done int, prefix []float64) {
	step, next := max(1, total/64), 1
	var z sweep.Summarizer
	return func(done int, prefix []float64) {
		if done < next || done >= total {
			return
		}
		next = done + step
		start := time.Now()
		_, _ = z.Summarize(prefix) // a bad prefix shows in the study boundary's result
		timed(&sm.summaries, &sm.summaryNS, start)
	}
}

func (sm *simLayer) eval(ctx context.Context, r request) error {
	switch r.kind {
	case kindFigure:
		return nil
	case kindModel:
		var req serve.ModelRequest
		if err := json.Unmarshal(r.body, &req); err != nil {
			return err
		}
		if req.Workflow == nil {
			return nil // a built-in case builds nothing per request
		}
		m, err := machine.ByName(req.Machine)
		if err != nil {
			return err
		}
		var wf workflow.Workflow
		if err := json.Unmarshal(req.Workflow, &wf); err != nil {
			return err
		}
		start := time.Now()
		_, err = core.Build(m, &wf, core.BuildOptions{})
		timed(&sm.builds, &sm.buildNS, start)
		return err
	}
	spec, err := study.ParseSpec(r.body)
	if err != nil {
		return err
	}
	var progress func(int, []float64)
	if r.kind == kindStream {
		progress = sm.progress(max(spec.Trials, spec.Count))
	}
	_, err = sm.ensemble(ctx, spec, progress)
	return err
}

// ensemble replays a sweep spec below study and returns its makespans,
// which must summarize to study's tables for the same spec (see
// TestSimLayerMatchesStudy).
func (sm *simLayer) ensemble(ctx context.Context, spec *study.Spec, progress func(int, []float64)) ([]float64, error) {
	switch spec.Kind {
	case "montecarlo":
		return sm.monteCarlo(ctx, spec, progress)
	case "failures":
		return sm.failures(ctx, spec, progress)
	case "corpus":
		return sm.corpus(ctx, spec, progress)
	}
	return nil, fmt.Errorf("sim layer: no replay for kind %q", spec.Kind)
}

func (sm *simLayer) compileCase(name string) (*sim.Plan, error) {
	cs, err := workloads.ByName(name)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	plan, err := sim.Compile(cs.Workflow, cs.Programs, cs.SimConfig)
	timed(&sm.compiles, &sm.compileNS, start)
	if err != nil {
		return nil, err
	}
	return plan, sm.compiled(plan)
}

func (sm *simLayer) batch(plan *sim.Plan, trials []sim.Trial, out []float64) error {
	brs := make([]sim.BatchResult, len(trials))
	start := time.Now()
	err := plan.RunBatch(trials, brs)
	sm.batchNS.Add(int64(time.Since(start)))
	sm.trials.Add(int64(len(trials)))
	for i, br := range brs {
		out[i] = br.Makespan
	}
	return err
}

func (sm *simLayer) monteCarlo(ctx context.Context, spec *study.Spec, progress func(int, []float64)) ([]float64, error) {
	plan, err := sm.compileCase(spec.Case)
	if err != nil {
		return nil, err
	}
	base, err1 := units.ParseByteRate(spec.Sampler.Base)
	bad, err2 := units.ParseByteRate(spec.Sampler.Degraded)
	if err1 != nil || err2 != nil {
		return nil, fmt.Errorf("sampler rates: %v %v", err1, err2)
	}
	streams := max(spec.Streams, 1)
	// The ensemble's progress prefixes are its makespans in trial order;
	// the last one seen covers them all.
	var makespans []float64
	_, err = contention.MonteCarloEnsembleBatchProgress(ctx, spec.Trials, spec.Seed, 0, 0,
		contention.TwoState{Base: base, Degraded: bad, PBad: spec.Sampler.PBad},
		func(days []units.ByteRate, out []float64) error {
			trials := make([]sim.Trial, len(days))
			for i, rate := range days {
				trials[i] = sim.Trial{OverrideExternal: true, ExternalBW: units.ByteRate(streams) * rate}
				if streams > 1 {
					trials[i].ExternalPerFlowCap = rate
				}
			}
			return sm.batch(plan, trials, out)
		}, func(done int, prefix []float64) {
			makespans = prefix
			if progress != nil {
				progress(done, prefix)
			}
		})
	return makespans, err
}

func (sm *simLayer) failures(ctx context.Context, spec *study.Spec, progress func(int, []float64)) ([]float64, error) {
	plan, err := sm.compileCase(spec.Case)
	if err != nil {
		return nil, err
	}
	return sweep.MapChunksProgress(ctx, spec.Trials, 0, 0, func(_ context.Context, lo, hi int, out []float64) error {
		trials := make([]sim.Trial, hi-lo)
		for i := range trials {
			fs := *spec.Failure
			fs.Seed = sweep.TrialSeed(spec.Seed, lo+i)
			fm, err := fs.Compile()
			if err != nil {
				return err
			}
			trials[i] = sim.Trial{Failures: fm}
		}
		return sm.batch(plan, trials, out)
	}, progress)
}

func (sm *simLayer) corpus(ctx context.Context, spec *study.Spec, progress func(int, []float64)) ([]float64, error) {
	m, err := machine.ByName(spec.Machine)
	if err != nil {
		return nil, err
	}
	fams := spec.Families
	if len(fams) == 0 {
		fams = wfgen.Families()
	}
	return sweep.MapChunksProgress(ctx, spec.Count, 0, 0, func(_ context.Context, lo, hi int, out []float64) error {
		for j := range out {
			s := *spec.Template
			s.Family = fams[(lo+j)%len(fams)]
			s.Seed = sweep.TrialSeed(spec.Seed, lo+j)
			start := time.Now()
			wf, err := wfgen.Generate(&s)
			timed(&sm.generates, &sm.generateNS, start)
			if err != nil {
				return err
			}
			start = time.Now()
			_, err = core.Build(m, wf, core.BuildOptions{})
			timed(&sm.builds, &sm.buildNS, start)
			if err != nil {
				return err
			}
			start = time.Now()
			plan, err := sim.Compile(wf, nil, sim.Config{Machine: m})
			timed(&sm.compiles, &sm.compileNS, start)
			if err != nil {
				return err
			}
			if err := sm.compiled(plan); err != nil {
				return err
			}
			start = time.Now()
			br, err := plan.RunScalar(sim.Trial{})
			sm.batchNS.Add(int64(time.Since(start)))
			sm.trials.Add(1)
			if err != nil {
				return err
			}
			out[j] = br.Makespan
		}
		return nil
	}, progress)
}

func (sm *simLayer) report(res *result) {
	res.set("sweep.summarize_us", perCall(&sm.summaryNS, &sm.summaries), "us")
	res.set("sim.compile_us", perCall(&sm.compileNS, &sm.compiles), "us")
	share, spans, tps := 0.0, 0.0, 0.0
	if c := sm.compiles.Load(); c > 0 {
		share = float64(sm.analytic.Load()) / float64(c)
	}
	if p := sm.spanPlans.Load(); p > 0 {
		spans = float64(sm.spans.Load()) / float64(p)
	}
	if ns := sm.batchNS.Load(); ns > 0 {
		tps = float64(sm.trials.Load()) / (float64(ns) / 1e9)
	}
	res.set("sim.analytic_share", share, "ratio")
	res.set("sim.trials_per_s", tps, "1/s")
	res.set("sim.spans_per_trial", spans, "count")
	res.set("wfgen.generate_us", perCall(&sm.generateNS, &sm.generates), "us")
	res.set("core.build_us", perCall(&sm.buildNS, &sm.builds), "us")
}
