package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/counters"
	"repro/internal/machine"
	"repro/internal/service"
	"repro/internal/sim"
)

var bg = context.Background()

// encodeNDJSON replicates the streaming encoder: one compact document per
// line.
func encodeNDJSON(t *testing.T, lines []service.SweepStreamLine) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, l := range lines {
		if err := enc.Encode(l); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// sweep collects the coordinator's stream into the cells and failure count
// of a plain sweep response.
func sweep(ctx context.Context, c *Coordinator, req service.SweepRequest) (*service.SweepResponse, error) {
	resp := &service.SweepResponse{}
	sum, err := c.SweepStream(ctx, req, func(cell service.SweepCell) error {
		resp.Cells = append(resp.Cells, cell)
		return nil
	})
	if err != nil {
		return nil, err
	}
	resp.Failures = sum.Failures
	return resp, nil
}

// TestWorkerKillMidSweep is the degraded-operation lock, run under -race in
// CI: one worker dies after the first cell lands, and the sweep must still
// complete with bytes identical to the single-process golden — the dead
// worker's cells reroute (ring successor, then the local service), and
// determinism makes the reroute invisible.
func TestWorkerKillMidSweep(t *testing.T) {
	f := newFleet(t, 2, service.Config{})
	req := service.SweepRequest{
		Workloads: []string{"intruder", "genome"},
		Machines:  []string{"Haswell"},
		Scale:     0.05,
		Workers:   1, // serial cells: the kill lands between cell 1 and cell 2
	}

	var lines []service.SweepStreamLine
	killed := false
	sum, err := f.coord.SweepStream(bg, req, func(c service.SweepCell) error {
		cell := c
		lines = append(lines, service.SweepStreamLine{Cell: &cell})
		if !killed {
			killed = true
			// First cell emitted: the whole fleet goes down mid-sweep.
			for _, s := range f.servers {
				s.CloseClientConnections()
				s.Close()
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	lines = append(lines, service.SweepStreamLine{Summary: sum})
	got := encodeNDJSON(t, lines)
	if want := serviceGolden(t, "sweep_stream.ndjson"); !bytes.Equal(got, want) {
		t.Errorf("post-kill stream differs from single-process golden.\n--- golden\n%s\n--- got\n%s", want, got)
	}
	if sum.Failures != 0 {
		t.Errorf("sweep reports %d failures after rerouting, want 0", sum.Failures)
	}
}

// TestDeadWorkerFailsOverOnTheRing: with one worker down from the start,
// every request still answers golden bytes, and at least the surviving
// worker (or the local fallback) serves them. The dead worker is marked
// unhealthy after its first failed relay, so later requests skip it
// immediately.
func TestDeadWorkerFailsOverOnTheRing(t *testing.T) {
	f := newFleet(t, 2, service.Config{})
	f.servers[0].CloseClientConnections()
	f.servers[0].Close()

	body := `{"api_version":"v1","workload":"intruder","machine":"Haswell","scale":0.05,"compare":true}`
	status, got := do(t, f.handler, http.MethodPost, "/v1/predict", body)
	if status != http.StatusOK {
		t.Fatalf("predict with half the fleet down: status %d (%s)", status, got)
	}
	if want := serviceGolden(t, "predict.json"); !bytes.Equal(got, want) {
		t.Error("failover predict differs from single-process golden")
	}
	// A full sweep with half the fleet down still matches the shared-state
	// sweep golden (the predict above warmed the same fits the golden run's
	// predict did).
	status, got = do(t, f.handler, http.MethodPost, "/v1/sweep",
		`{"workloads":["intruder","genome"],"machines":["Haswell"],"scale":0.05}`)
	if status != http.StatusOK {
		t.Fatalf("sweep with half the fleet down: status %d", status)
	}
	if want := serviceGolden(t, "sweep.json"); !bytes.Equal(got, want) {
		t.Errorf("failover sweep differs from golden.\n--- golden\n%s\n--- got\n%s", want, got)
	}
}

// TestCoalescingSharesOneFlight: two clients sending the identical request
// concurrently produce ONE worker request; the second joins the first's
// flight. The hit is visible on /readyz.
func TestCoalescingSharesOneFlight(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	started := make(chan struct{})
	blocking := service.Config{
		CollectSample: func(w sim.Workload, m *machine.Config, cores int, scale float64) (counters.Sample, error) {
			once.Do(func() { close(started) })
			<-release
			return sim.Collect(w, m, cores, scale)
		},
	}
	f := newFleet(t, 2, blocking)

	body := `{"workload":"intruder","machine":"Haswell","scale":0.05}`
	results := make(chan []byte, 2)
	go func() {
		_, b := do(t, f.handler, http.MethodPost, "/v1/predict", body)
		results <- b
	}()
	<-started // the first flight holds the worker

	// Wait until the second identical request has joined the first flight,
	// then release the measurement.
	go func() {
		_, b := do(t, f.handler, http.MethodPost, "/v1/predict", body)
		results <- b
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, hits := f.coord.relayFlights.Stats(); hits >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("second request never joined the in-flight relay")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)

	a, b := <-results, <-results
	if !bytes.Equal(a, b) {
		t.Error("coalesced responses differ")
	}
	var workerRequests int64
	for _, w := range f.workers {
		workerRequests += w.hits.Load()
	}
	if workerRequests != 1 {
		t.Errorf("fleet served %d /v1/* requests for two identical clients, want 1", workerRequests)
	}
	started2, hits := f.coord.relayFlights.Stats()
	if started2 != 1 || hits != 1 {
		t.Errorf("relay flights started=%d hits=%d, want 1/1", started2, hits)
	}

	// The /readyz aggregate surfaces the counters.
	_, rb := do(t, f.handler, http.MethodGet, "/readyz", "")
	var ready service.ReadyResponse
	if err := json.Unmarshal(rb, &ready); err != nil {
		t.Fatal(err)
	}
	if ready.Mode != "coordinator" || len(ready.Workers) != 2 {
		t.Fatalf("readyz mode=%q workers=%d, want coordinator/2", ready.Mode, len(ready.Workers))
	}
	foundRelay := false
	for _, cs := range ready.Coalesce {
		if cs.Endpoint == "relay" && cs.Hits >= 1 {
			foundRelay = true
		}
	}
	if !foundRelay {
		t.Errorf("readyz coalesce %v does not report the relay hit", ready.Coalesce)
	}
	var share float64
	for _, w := range ready.Workers {
		share += w.Share
		if w.Error != "" {
			t.Errorf("worker %s readyz fetch failed: %s", w.Addr, w.Error)
		}
		if w.Ready == nil || w.Ready.Mode != "worker" {
			t.Errorf("worker %s aggregate missing its own readyz", w.Addr)
		}
	}
	if share < 0.999 || share > 1.001 {
		t.Errorf("worker shares sum to %g, want 1", share)
	}
}

// TestOverlappingSweepsShareCells: two concurrent sweeps whose grids
// overlap on one scenario share that cell's flight — the cross-request DAG
// coalescing singleflight alone cannot provide.
func TestOverlappingSweepsShareCells(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	started := make(chan struct{})
	blocking := service.Config{
		CollectSample: func(w sim.Workload, m *machine.Config, cores int, scale float64) (counters.Sample, error) {
			once.Do(func() { close(started) })
			<-release
			return sim.Collect(w, m, cores, scale)
		},
	}
	f := newFleet(t, 2, blocking)

	run := func(workloads []string, out chan<- *service.SweepResponse) {
		resp, err := sweep(bg, f.coord, service.SweepRequest{
			Workloads: workloads, Machines: []string{"Haswell"}, Scale: 0.05,
		})
		if err != nil {
			t.Error(err)
			out <- nil
			return
		}
		out <- resp
	}
	aCh := make(chan *service.SweepResponse, 1)
	bCh := make(chan *service.SweepResponse, 1)
	go run([]string{"intruder"}, aCh)
	<-started
	go run([]string{"intruder", "genome"}, bCh)

	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, hits := f.coord.cellFlights.Stats(); hits >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("overlapping sweep never joined the shared cell flight")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)

	a, b := <-aCh, <-bCh
	if a == nil || b == nil {
		t.Fatal("sweep failed")
	}
	if len(a.Cells) != 1 || len(b.Cells) != 2 {
		t.Fatalf("cell counts %d/%d, want 1/2", len(a.Cells), len(b.Cells))
	}
	ab, _ := json.Marshal(a.Cells[0])
	bb, _ := json.Marshal(b.Cells[0])
	if !bytes.Equal(ab, bb) {
		t.Errorf("shared cell differs between overlapping sweeps:\n%s\n%s", ab, bb)
	}
	cellsStarted, cellHits := f.coord.cellFlights.Stats()
	if cellHits < 1 {
		t.Errorf("cell flights started=%d hits=%d, want at least one shared hit", cellsStarted, cellHits)
	}
}

// roundTripFunc is a stub http.RoundTripper.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestAbandonedCellFlightIsNotInherited: a sweep whose requester hung up
// abandons its cell flight while the worker request is still outstanding.
// A later sweep of the same cell with a live context must run it afresh,
// never return the abandoned flight's "context canceled" as its cell.
func TestAbandonedCellFlightIsNotInherited(t *testing.T) {
	worker, err := service.New(service.Config{})
	if err != nil {
		t.Fatal(err)
	}
	inner := service.NewHandler(worker, service.ServerConfig{Mode: "worker"})
	release := make(chan struct{})
	entered := make(chan struct{}, 2) // one per flight this test starts
	// The stub worker holds every request until released, then answers as
	// a real transport would: with the request's own context error when
	// its caller has gone, else with the worker's response.
	stub := roundTripFunc(func(r *http.Request) (*http.Response, error) {
		entered <- struct{}{}
		<-release
		if err := r.Context().Err(); err != nil {
			return nil, err
		}
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, r)
		return rec.Result(), nil
	})
	local, err := service.New(service.Config{})
	if err != nil {
		t.Fatal(err)
	}
	coord, err := New(Config{Workers: []string{"stub:1"}, Local: local,
		Client: &http.Client{Transport: stub}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	req := service.SweepRequest{Workloads: []string{"intruder"}, Machines: []string{"Haswell"}, Scale: 0.05}

	ctxA, cancelA := context.WithCancel(bg)
	errA := make(chan error, 1)
	go func() {
		_, err := sweep(ctxA, coord, req)
		errA <- err
	}()
	<-entered
	cancelA()
	if err := <-errA; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned sweep returned %v, want context.Canceled", err)
	}

	respB := make(chan *service.SweepResponse, 1)
	go func() {
		resp, err := sweep(bg, coord, req)
		if err != nil {
			t.Error(err)
		}
		respB <- resp
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if started, hits := coord.cellFlights.Stats(); started+hits >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("live sweep never reached the cell flights")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)

	b := <-respB
	if b == nil {
		t.Fatal("live sweep failed")
	}
	if len(b.Cells) != 1 || b.Cells[0].Error != "" || b.Failures != 0 {
		t.Fatalf("live sweep cells %+v, want one successful cell", b.Cells)
	}
	if started, hits := coord.cellFlights.Stats(); started != 2 || hits != 0 {
		t.Errorf("cell flights started=%d hits=%d, want a fresh execution (2/0)", started, hits)
	}
}
