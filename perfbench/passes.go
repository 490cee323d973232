package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/machine"
	"repro/internal/service"
	"repro/internal/store"
)

// passes is the window cold-predict and stored-eval share: one caller
// issues every request of a pass, in a seed-permuted order, through a fresh
// Service over the pass's store directory, and keeps running whole passes
// until the window is at least env.windowSeconds() long and has timed at
// least env.minRequests() requests.
type passes struct {
	e     *env
	label string
	reqs  []service.PredictRequest
	// first holds each request's JSON from the first pass; every later
	// pass must repeat it byte for byte.
	first [][]byte
	// dir is the store directory of every pass; reset prepares it before
	// each pass, so every response names the same store_dir.
	dir   string
	reset func() error
	// sims is how many simulations a request must run.
	sims func(req service.PredictRequest) int64
	// check adds the workload's own checks of one response.
	check func(win *window, what string, resp *service.PredictResponse)
	// truth is the ground-truth store replays read (nil for cold-predict).
	truth *store.Store
}

// run times one window and returns it with the last response per request.
func (p *passes) run(ctx context.Context, tr *tracer) (*window, []*service.PredictResponse, error) {
	e := p.e
	e.tr.Store(tr)
	defer e.tr.Store(nil)
	if p.first == nil {
		p.first = make([][]byte, len(p.reqs))
	}
	win := &window{perReq: make([][]float64, len(p.reqs))}
	last := make([]*service.PredictResponse, len(p.reqs))
	perReq := make([][]float64, len(p.reqs))
	var jobs []replayJob
	var simCalls, fits, memo int64
	n := 0
	for ; n == 0 || win.elapsed < e.windowSeconds() || len(win.lat) < e.minRequests(); n++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		if err := p.reset(); err != nil {
			return nil, nil, err
		}
		passStore, err := store.Open(p.dir)
		if err != nil {
			return nil, nil, err
		}
		simBefore := e.simCalls.Load()
		t0 := time.Now()
		svc, err := e.newService(p.dir)
		pass := subWindow{seconds: time.Since(t0).Seconds()}
		win.elapsed += pass.seconds
		if err != nil {
			return nil, nil, err
		}
		var wantSims int64
		var probes []float64
		// The request index and probe index of each pass.lat entry.
		var passReqs, passProbes []int
		for _, i := range permutation(len(p.reqs), e.o.seed, uint64(n)) {
			req := p.reqs[i]
			what := fmt.Sprintf("%s %s on %s", p.label, req.Workload, req.Machine)
			// The host-speed probe runs untimed, right before the request.
			probes = append(probes, probeMs())
			reqID := tr.newReq()
			root := tr.start("service.predict", 0, reqID)
			cur := activeReq{span: root.id(), req: reqID}
			e.cur.Store(&cur)
			t := time.Now()
			resp, err := svc.Predict(ctx, req)
			d := time.Since(t)
			root.end()
			e.cur.Store(nil)
			win.attempted++
			win.elapsed += d.Seconds()
			pass.seconds += d.Seconds()
			wantSims += p.sims(req)
			if err != nil {
				win.failed++
				win.failf("%s: %v", what, err)
				continue
			}
			ms := float64(d.Nanoseconds()) / 1e6
			win.lat = append(win.lat, ms)
			pass.lat = append(pass.lat, ms)
			passReqs = append(passReqs, i)
			passProbes = append(passProbes, len(probes)-1)
			perReq[i] = append(perReq[i], ms)
			m, err := machine.Lookup(req.Machine)
			if err != nil {
				return nil, nil, err
			}
			checkTimes(win, what, resp, m.NumCores())
			p.check(win, what, resp)
			data, err := encode(tr, cur, resp)
			if err != nil {
				return nil, nil, err
			}
			if p.first[i] == nil {
				p.first[i] = data
			} else if !bytes.Equal(p.first[i], data) {
				win.failf("%s: response differs from the first pass", what)
			}
			last[i] = resp
			if tr != nil {
				job, err := captureReplay(ctx, e, cur, req, resp, passStore)
				if err != nil {
					return nil, nil, err
				}
				jobs = append(jobs, job)
			}
		}
		pass.factor = hostFactor(probes, probeRefMs)
		local := localFactors(probes)
		for j, i := range passReqs {
			win.perReq[i] = append(win.perReq[i], pass.lat[j]/local[passProbes[j]])
		}
		if len(pass.lat) > 0 {
			win.sub = append(win.sub, pass)
		}
		got := e.simCalls.Load() - simBefore
		if got != wantSims {
			win.failf("%s pass %d: %d simulations, want %d", p.label, n, got, wantSims)
		}
		f, h := svc.FitCacheStats()
		simCalls, fits, memo = simCalls+got, fits+f, memo+h
	}
	e.tr.Store(nil)
	for i, r := range p.reqs {
		e.logf("%s: %-16s on %-7s median %9.2fms wall clock, %9.2fms host-normalized, over %d passes",
			p.label, r.Workload, r.Machine, orZero(median(perReq[i])), orZero(median(win.perReq[i])), len(perReq[i]))
	}
	e.logf("%s: %d passes, %d requests in %.2fs timed", p.label, n, win.attempted, win.elapsed)
	if tr != nil {
		scratch, err := store.Open(filepath.Join(e.dir, "replay-store"))
		if err != nil {
			return nil, nil, err
		}
		var st replayStats
		for _, j := range jobs {
			if err := j.replay(ctx, tr, p.truth, scratch, &st); err != nil {
				return nil, nil, err
			}
		}
		win.layers = singleCallerLayers(tr, &st, n, simCalls, fits, memo)
	}
	return win, last, nil
}
