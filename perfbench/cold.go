package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/service"
	"repro/internal/workloads"
)

// accuracySubset is the fixed scenario set whose accuracy the cold and warm
// workloads score (stored-eval scores all 19): two micro-benchmarks, two
// STAMP and two PARSEC applications, chosen by suite before any error was
// looked at.
var accuracySubset = []string{"lock-based HT", "lock-free SL", "genome", "intruder", "canneal", "streamcluster"}

// warmUpWorkload is the cheapest Table-4 workload to simulate; set-up
// predicts it once per machine.
const warmUpWorkload = "blackscholes"

// coldBench is the cold-predict workload: one caller issues Service.Predict
// for each Table-4 workload on Xeon20 (measured 1..10) and Opteron
// (measured 1..12), predicting the whole machine, through a fresh Service
// over an empty store per pass — a freshly started `estima serve -cache`.
type coldBench struct {
	e *env
	p *passes
}

func newColdBench(e *env) bench { return &coldBench{e: e} }

// coldRequests are the 38 cold-predict requests: Table-4 workload ×
// {Xeon20, Opteron}, one-processor windows, §5.3 soft-stall rule, no
// bootstrap, no comparison.
func coldRequests(scale float64) []service.PredictRequest {
	var reqs []service.PredictRequest
	for _, name := range workloads.Table4Names() {
		for _, mc := range []struct {
			machine string
			meas    int
		}{{"Xeon20", 10}, {"Opteron", 12}} {
			reqs = append(reqs, service.PredictRequest{Workload: name, Machine: mc.machine,
				MeasCores: mc.meas, Scale: scale, Soft: usesSoftwareStalls(name)})
		}
	}
	return reqs
}

// setup builds the request list and runs one throwaway cold prediction
// per machine, so the first timed pass does not pay the process's one-off
// costs (simulator state pools, heap growth) that later passes skip.
func (c *coldBench) setup(ctx context.Context) error {
	dir := filepath.Join(c.e.dir, "cold-pass")
	c.p = &passes{
		e:     c.e,
		label: "cold-predict",
		reqs:  coldRequests(c.e.o.scale),
		dir:   dir,
		reset: func() error { return os.RemoveAll(dir) },
		// One simulation per measured core: the store starts empty.
		sims: func(req service.PredictRequest) int64 { return int64(req.MeasCores) },
		check: func(win *window, what string, resp *service.PredictResponse) {
			if resp.CacheHit {
				win.failf("%s: cache hit on an empty store", what)
			}
		},
	}
	warm := filepath.Join(c.e.dir, "cold-warm-up")
	if err := os.RemoveAll(warm); err != nil {
		return err
	}
	svc, err := c.e.newService(warm)
	if err != nil {
		return err
	}
	for _, req := range c.p.reqs {
		if req.Workload != warmUpWorkload {
			continue
		}
		if _, err := svc.Predict(ctx, req); err != nil {
			return fmt.Errorf("warm-up %s on %s: %w", req.Workload, req.Machine, err)
		}
	}
	return nil
}

func (c *coldBench) teardown() {}

func (c *coldBench) window(ctx context.Context, tr *tracer) (*window, error) {
	win, last, err := c.p.run(ctx, tr)
	if err != nil {
		return nil, err
	}
	if c.e.reports(tr) {
		if err := c.score(ctx, win, last); err != nil {
			return nil, err
		}
	}
	if win.layers != nil {
		for i, name := range win.acc.names {
			set(win.layers, "core.err_pct."+metricName(name), win.acc.maxErr[i])
		}
	}
	return win, nil
}

// score is the untimed accuracy phase. For each accuracySubset workload it
// issues the stored-eval request (meas_cores 10, bootstrap 20, compare) on
// a fresh Service over the last pass's store, so the window replays from
// the store and only the 1..20 ground truth is simulated. That response's
// time_s must equal the cold prediction's, and its error scores the cold
// answer.
func (c *coldBench) score(ctx context.Context, win *window, last []*service.PredictResponse) error {
	svc, err := c.e.newService(c.p.dir)
	if err != nil {
		return err
	}
	for _, name := range accuracySubset {
		var cold *service.PredictResponse
		for i, r := range c.p.reqs {
			if r.Workload == name && r.Machine == "Xeon20" {
				cold = last[i]
			}
		}
		if cold == nil {
			continue // the request failed and is already reported
		}
		req := storedRequest(name, c.e.o.scale)
		resp, err := svc.Predict(ctx, req)
		if err != nil {
			win.failf("accuracy %s: %v", name, err)
			continue
		}
		if !sameTimes(resp.Time, cold.Time) {
			win.failf("accuracy %s: stored-eval time_s differs from cold-predict's", name)
		}
		win.acc.add(name, scoreCompared(win, "accuracy "+name, resp, req.MeasCores))
	}
	win.acc.print(c.e, "cold-predict accuracy")
	return nil
}
