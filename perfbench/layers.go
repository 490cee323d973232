package main

import (
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/machine"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/workloads"
)

// warmEndpoints are the warm-fleet mix endpoints, each reported as
// warm.<endpoint>_ms_p50.
var warmEndpoints = []string{"predict", "diagnose_post", "diagnose_get", "sweep", "cell", "workloads", "machines"}

// layerMetrics returns every per-layer metric at zero. Each workload fills
// in the layers it exercises; a zero therefore reads "not exercised by this
// workload" (sim.calls and service.fits_computed are zero by requirement on
// the warm workloads).
func layerMetrics() map[string]metric {
	m := map[string]metric{
		"sim.calls":                  {0, "count"},
		"sim.busy_ms":                {0, "ms"},
		"sim.collect_ms_p50":         {0, "ms"},
		"sim.ns_per_op":              {0, "ns/op"},
		"workloads.build_ms":         {0, "ms"},
		"workloads.ops":              {0, "count"},
		"store.put_ms":               {0, "ms"},
		"store.find_prefix_ms":       {0, "ms"},
		"store.get_ms":               {0, "ms"},
		"store.hit_ratio":            {0, "ratio"},
		"core.fit_ms":                {0, "ms"},
		"core.finish_ms":             {0, "ms"},
		"service.fits_computed":      {0, "count"},
		"service.fit_memo_hits":      {0, "count"},
		"service.http_ms_p50":        {0, "ms"},
		"service.encode_ms_p50":      {0, "ms"},
		"service.gate_rejected":      {0, "count"},
		"net.loopback_ms_p50":        {0, "ms"},
		"cluster.relay_ms_p50":       {0, "ms"},
		"cluster.coalesce_hit_ratio": {0, "ratio"},
	}
	for _, ep := range warmEndpoints {
		m["warm."+ep+"_ms_p50"] = metric{0, "ms"}
	}
	for _, name := range workloads.Table4Names() {
		m["core.err_pct."+metricName(name)] = metric{0, "%"}
	}
	return m
}

// set overwrites one metric's value, keeping its unit.
func set(m map[string]metric, name string, v float64) {
	mt, ok := m[name]
	if !ok {
		panic("perfbench: unknown per-layer metric " + name)
	}
	mt.Value = v
	m[name] = mt
}

// replayStats accumulates the replayed layer calls of the single-caller
// workloads across a traced window.
type replayStats struct {
	buildOps int64
	simNs    int64
	hits     int
	answers  int
}

// replayJob is what a traced request leaves for the replay phase: its
// request and response, the simulations it ran and the measured window it
// stored.
type replayJob struct {
	root   activeReq
	req    service.PredictRequest
	resp   *service.PredictResponse
	sims   []simCall
	key    store.Key
	series *counters.Series
	m      *machine.Config
}

// captureReplay collects, right after a traced request returned, the inputs
// its replays need.
func captureReplay(ctx context.Context, e *env, root activeReq, req service.PredictRequest,
	resp *service.PredictResponse, passStore *store.Store) (replayJob, error) {
	w, err := workloads.Lookup(req.Workload)
	if err != nil {
		return replayJob{}, err
	}
	m, err := machine.Lookup(req.Machine)
	if err != nil {
		return replayJob{}, err
	}
	key := store.Key{Workload: w.Name(), Machine: m.Name, MaxCores: req.MeasCores, Scale: req.Scale, Engine: sim.EngineVersion}
	series, ok := passStore.Get(ctx, key)
	if !ok {
		return replayJob{}, fmt.Errorf("replay: %s window was not stored by the request", req.Workload)
	}
	return replayJob{root: root, req: req, resp: resp, sims: e.takeSims(), key: key, series: series, m: m}, nil
}

// replay re-runs, after the traced window, the public calls of every layer
// the request crossed without a live hook, on the request's own inputs:
// the program build of each of its simulations (sim.CountOps), the store
// calls, the LM fit and the Finish stage (bootstrap included). truth, when
// set, is the ground-truth store the request windowed from. Replaying after
// the window keeps the replays' garbage out of the timed requests.
func (j replayJob) replay(ctx context.Context, tr *tracer, truth, scratch *store.Store, st *replayStats) error {
	root := j.root
	for _, c := range j.sims {
		sp := tr.replay("workloads.build", root.span, root.req)
		ops, err := sim.CountOps(c.w, c.m, c.cores, c.scale)
		sp.end()
		if err != nil {
			return err
		}
		st.buildOps += ops
		st.simNs += c.ns
	}
	st.answers++
	if j.resp.CacheHit {
		st.hits++
	}
	if truth != nil {
		full := j.key
		full.MaxCores = j.m.NumCores()
		sp := tr.replay("store.get", root.span, root.req)
		_, ok := truth.Get(ctx, full)
		sp.end()
		if !ok {
			return fmt.Errorf("replay: %s ground truth missing from the store", j.req.Workload)
		}
		sp = tr.replay("store.find_prefix", root.span, root.req)
		_, ok = truth.FindPrefix(ctx, j.key)
		sp.end()
		if !ok {
			return fmt.Errorf("replay: %s window not found by prefix", j.req.Workload)
		}
	}
	sp := tr.replay("store.put", root.span, root.req)
	err := scratch.Put(j.key, j.series)
	sp.end()
	if err != nil {
		return err
	}
	// The fit runs with the options the service derives from the request.
	pl := core.NewPipeline(core.Options{
		UseSoftware: j.req.Soft,
		Checkpoints: j.req.Checkpoints,
		Bootstrap:   j.req.Bootstrap,
		CILevel:     j.req.CILevel,
	})
	sp = tr.replay("core.fit", root.span, root.req)
	art, err := pl.Fit(ctx, j.series, sim.CoreRange(j.m.NumCores()))
	sp.end()
	if err != nil {
		return err
	}
	sp = tr.replay("core.finish", root.span, root.req)
	_, err = pl.Finish(ctx, art)
	sp.end()
	return err
}

// encode marshals a response the way a client sees it, as a span of the
// request while tracing.
func encode(tr *tracer, root activeReq, v any) ([]byte, error) {
	sp := tr.replay("service.encode", root.span, root.req)
	data, err := json.Marshal(v)
	sp.end()
	return data, err
}

// singleCallerLayers fills the per-layer metrics the cold and stored
// workloads share from a traced window of the given number of passes.
func singleCallerLayers(tr *tracer, st *replayStats, passes int, simCalls, fits, memo int64) map[string]metric {
	lm := layerMetrics()
	p := float64(passes)
	simMs := tr.durationsMs("sim.collect")
	set(lm, "sim.calls", float64(simCalls)/p)
	set(lm, "sim.busy_ms", sum(simMs)/p)
	set(lm, "sim.collect_ms_p50", orZero(median(simMs)))
	if st.buildOps > 0 {
		set(lm, "sim.ns_per_op", float64(st.simNs)/float64(st.buildOps))
	}
	set(lm, "workloads.build_ms", orZero(mean(tr.durationsMs("workloads.build"))))
	set(lm, "workloads.ops", float64(st.buildOps)/p)
	set(lm, "store.put_ms", orZero(mean(tr.durationsMs("store.put"))))
	set(lm, "store.get_ms", orZero(mean(tr.durationsMs("store.get"))))
	set(lm, "store.find_prefix_ms", orZero(mean(tr.durationsMs("store.find_prefix"))))
	set(lm, "store.hit_ratio", float64(st.hits)/float64(max(st.answers, 1)))
	set(lm, "core.fit_ms", orZero(mean(tr.durationsMs("core.fit"))))
	set(lm, "core.finish_ms", orZero(mean(tr.durationsMs("core.finish"))))
	set(lm, "service.fits_computed", float64(fits)/p)
	set(lm, "service.fit_memo_hits", float64(memo)/p)
	set(lm, "service.encode_ms_p50", orZero(median(tr.durationsMs("service.encode"))))
	return lm
}

// orZero maps the NaN of an empty sample to zero ("not exercised").
func orZero(x float64) float64 {
	if x != x {
		return 0
	}
	return x
}
