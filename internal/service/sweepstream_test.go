package service_test

import (
	"context"
	"errors"
	"net/http/httptest"
	"testing"

	"repro/internal/cluster"
	"repro/internal/service"
)

// newCoordinator builds a coordinator over a fleet of n in-process worker
// services.
func newCoordinator(t *testing.T, n int) *cluster.Coordinator {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		w, err := service.New(service.Config{})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(service.NewHandler(w, service.ServerConfig{Mode: "worker"}))
		t.Cleanup(ts.Close)
		addrs[i] = ts.URL
	}
	local, err := service.New(service.Config{})
	if err != nil {
		t.Fatal(err)
	}
	coord, err := cluster.New(cluster.Config{Workers: addrs, Local: local})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	return coord
}

// TestSweepStreamEmitErrorAborts: an emit failure (a gone client) or a
// cancelled context stops the sweep promptly and surfaces the error, with
// no cell emitted after it — in process and through the coordinator alike,
// since both run the one cell seam.
func TestSweepStreamEmitErrorAborts(t *testing.T) {
	type stream func(context.Context, service.SweepRequest, func(service.SweepCell) error) (*service.SweepSummary, error)
	tiers := []struct {
		name   string
		stream func(t *testing.T) stream
	}{
		{"service", func(t *testing.T) stream {
			svc, err := service.New(service.Config{})
			if err != nil {
				t.Fatal(err)
			}
			return svc.SweepStream
		}},
		{"fleet", func(t *testing.T) stream { return newCoordinator(t, 2).SweepStream }},
	}
	sentinel := errors.New("client gone")
	aborts := []struct {
		name string
		// emit is the first cell's emit; cancel cancels the sweep's ctx.
		emit    func(cancel context.CancelFunc) error
		wantErr error
	}{
		{"emit error", func(context.CancelFunc) error { return sentinel }, sentinel},
		{"cancelled ctx", func(cancel context.CancelFunc) error { cancel(); return nil }, context.Canceled},
	}
	req := service.SweepRequest{
		Workloads: []string{"intruder", "genome", "kmeans"},
		Machines:  []string{"Haswell"},
		Scale:     0.05,
	}
	for _, tier := range tiers {
		for _, ab := range aborts {
			t.Run(tier.name+"/"+ab.name, func(t *testing.T) {
				sweep := tier.stream(t)
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				calls := 0
				_, err := sweep(ctx, req, func(service.SweepCell) error {
					calls++
					return ab.emit(cancel)
				})
				if !errors.Is(err, ab.wantErr) {
					t.Errorf("SweepStream error = %v, want %v", err, ab.wantErr)
				}
				if calls != 1 {
					t.Errorf("emit ran %d times, want 1", calls)
				}
			})
		}
	}
}
