package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/workloads"
)

// storedRequest is the stored-eval request: the paper's evaluation loop on
// Xeon20 — measure one processor (1..10), predict the machine, bootstrap
// bands, and compare against the measured 1..20 series.
func storedRequest(name string, scale float64) service.PredictRequest {
	return service.PredictRequest{Workload: name, Machine: "Xeon20", MeasCores: 10, Scale: scale,
		Soft: usesSoftwareStalls(name), Bootstrap: 20, Compare: true}
}

// storedBench is the stored-eval workload: set-up collects each Table-4
// workload's full 1..20 Xeon20 series into a store (the ground truth); each
// pass opens a fresh Service on an identical copy of that store, the way a
// restarted `estima serve -cache` or `estima predict -cache` would, so
// every pass windows 1..10 through store.FindPrefix and reads 1..20
// through store.Get without simulating anything.
type storedBench struct {
	e        *env
	p        *passes
	truthDir string
	setupSeq int
}

func newStoredBench(e *env) bench { return &storedBench{e: e} }

func (s *storedBench) setup(ctx context.Context) error {
	s.setupSeq++
	s.truthDir = filepath.Join(s.e.dir, fmt.Sprintf("truth-%d", s.setupSeq))
	svc, err := s.e.newService(s.truthDir)
	if err != nil {
		return err
	}
	var reqs []service.PredictRequest
	for _, name := range workloads.Table4Names() {
		_, err := svc.Collect(ctx, service.CollectRequest{Workload: name, Machine: "Xeon20",
			Cores: "1-20", Scale: s.e.o.scale})
		if err != nil {
			return fmt.Errorf("collecting %s ground truth: %w", name, err)
		}
		reqs = append(reqs, storedRequest(name, s.e.o.scale))
	}
	truth, err := store.Open(s.truthDir)
	if err != nil {
		return err
	}
	dir := filepath.Join(s.e.dir, "stored-pass")
	s.p = &passes{
		e:     s.e,
		label: "stored-eval",
		reqs:  reqs,
		dir:   dir,
		// Every pass starts from an identical copy of the ground truth.
		reset: func() error {
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
			return copyDir(truth.Dir(), dir)
		},
		sims: func(service.PredictRequest) int64 { return 0 },
		check: func(win *window, what string, resp *service.PredictResponse) {
			if !resp.CacheHit {
				win.failf("%s: window not replayed from the store", what)
			}
		},
		truth: truth,
	}
	return nil
}

func (s *storedBench) teardown() {
	if s.truthDir != "" {
		os.RemoveAll(s.truthDir)
	}
}

func (s *storedBench) window(ctx context.Context, tr *tracer) (*window, error) {
	win, last, err := s.p.run(ctx, tr)
	if err != nil {
		return nil, err
	}
	for i, req := range s.p.reqs {
		if last[i] != nil {
			win.acc.add(req.Workload, scoreCompared(win, "stored-eval "+req.Workload, last[i], req.MeasCores))
		}
	}
	win.acc.print(s.e, "stored-eval accuracy")
	if s.e.reports(tr) {
		if err := s.crossCheck(ctx, win, last); err != nil {
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

// crossCheck issues the cold-predict request for one seed-chosen scenario
// on a fresh in-memory Service (it simulates the 1..10 window) and requires
// the stored-eval answer's time_s to match it exactly.
func (s *storedBench) crossCheck(ctx context.Context, win *window, last []*service.PredictResponse) error {
	i := int(uint64(s.e.o.seed) % uint64(len(s.p.reqs)))
	if last[i] == nil {
		return nil // the request failed and is already reported
	}
	svc, err := s.e.newService("")
	if err != nil {
		return err
	}
	cold := s.p.reqs[i]
	cold.Bootstrap, cold.Compare = 0, false
	resp, err := svc.Predict(ctx, cold)
	if err != nil {
		win.failf("cross-check %s: %v", cold.Workload, err)
		return nil
	}
	if !sameTimes(resp.Time, last[i].Time) {
		win.failf("cross-check %s: stored-eval time_s differs from a cold prediction's", cold.Workload)
	}
	return nil
}

// copyDir copies the regular files of src into a fresh dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		if !ent.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, ent.Name()), filepath.Join(dst, ent.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
