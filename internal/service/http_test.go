package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/counters"
	"repro/internal/machine"
	"repro/internal/pool"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// update regenerates the golden response files instead of comparing:
//
//	go test ./internal/service -run TestEndpointGoldenJSON -update
var update = flag.Bool("update", false, "rewrite golden files")

func newTestHandler(t *testing.T, scfg ServerConfig) http.Handler {
	t.Helper()
	return NewHandler(newTestService(t, Config{}), scfg)
}

// do performs one request against the handler and returns status and body.
func do(t *testing.T, h http.Handler, method, path, body string) (int, []byte) {
	t.Helper()
	var rdr io.Reader
	if body != "" {
		rdr = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rdr)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// TestEndpointGoldenJSON pins every /v1/* endpoint's exact JSON response on
// a deterministic scenario. The simulator is deterministic in all inputs,
// so these bodies are stable byte for byte.
func TestEndpointGoldenJSON(t *testing.T) {
	h := newTestHandler(t, ServerConfig{})
	cases := []struct {
		file   string
		method string
		path   string
		body   string
	}{
		{"workloads.json", http.MethodGet, "/v1/workloads", ""},
		{"machines.json", http.MethodGet, "/v1/machines", ""},
		{"predict.json", http.MethodPost, "/v1/predict",
			`{"api_version":"v1","workload":"intruder","machine":"Haswell","scale":0.05,"compare":true}`},
		{"predict_boot.json", http.MethodPost, "/v1/predict",
			`{"workload":"genome","machine":"Haswell","scale":0.05,"soft":true,"bootstrap":50}`},
		{"sweep.json", http.MethodPost, "/v1/sweep",
			`{"workloads":["intruder","genome"],"machines":["Haswell"],"scale":0.05}`},
		{"collect.json", http.MethodPost, "/v1/collect",
			`{"workload":"intruder","machine":"Haswell","cores":"1-2","scale":0.05}`},
	}
	for _, c := range cases {
		c := c
		t.Run(c.file, func(t *testing.T) {
			status, body := do(t, h, c.method, c.path, c.body)
			if status != http.StatusOK {
				t.Fatalf("status %d: %s", status, body)
			}
			if !json.Valid(body) {
				t.Fatalf("response is not valid JSON: %s", body)
			}
			path := filepath.Join("testdata", c.file)
			if *update {
				if err := os.WriteFile(path, body, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(body, want) {
				t.Errorf("response differs from golden %s.\n--- want\n%s\n--- got\n%s", c.file, want, body)
			}
		})
	}
}

func TestEndpointErrors(t *testing.T) {
	h := newTestHandler(t, ServerConfig{})
	cases := []struct {
		name   string
		method string
		path   string
		body   string
		status int
		want   string
	}{
		{"unknown path", http.MethodGet, "/v1/nope", "", http.StatusNotFound, ""},
		{"wrong method", http.MethodGet, "/v1/predict", "", http.StatusMethodNotAllowed, ""},
		{"bad json", http.MethodPost, "/v1/predict", "{", http.StatusBadRequest, "decoding request"},
		{"unknown field", http.MethodPost, "/v1/predict", `{"wrkload":"intruder"}`, http.StatusBadRequest, "unknown field"},
		{"bad version", http.MethodPost, "/v1/predict", `{"api_version":"v9","workload":"intruder","machine":"Haswell"}`,
			http.StatusBadRequest, "unsupported api version"},
		{"typo suggestion", http.MethodPost, "/v1/predict", `{"workload":"intrduer","machine":"Haswell"}`,
			http.StatusBadRequest, `did you mean \"intruder\"?`},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			status, body := do(t, h, c.method, c.path, c.body)
			if status != c.status {
				t.Errorf("status = %d, want %d (%s)", status, c.status, body)
			}
			if c.want != "" && !strings.Contains(string(body), c.want) {
				t.Errorf("body %s does not contain %q", body, c.want)
			}
		})
	}
}

func TestHealthzReportsCapacity(t *testing.T) {
	h := newTestHandler(t, ServerConfig{MaxInFlight: 3})
	status, body := do(t, h, http.MethodGet, "/healthz", "")
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	var doc struct {
		Status   string `json:"status"`
		Version  string `json:"version"`
		InFlight int    `json:"in_flight"`
		Capacity int    `json:"capacity"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Status != "ok" || doc.Version != APIVersion || doc.Capacity != 3 || doc.InFlight != 0 {
		t.Errorf("healthz = %+v", doc)
	}
}

// TestConcurrentPredictsUnderLimiter is the acceptance scenario: 8
// concurrent /v1/predict requests (run under -race in CI) must all answer
// 200 with identical, correct bodies.
func TestConcurrentPredictsUnderLimiter(t *testing.T) {
	srv := httptest.NewServer(newTestHandler(t, ServerConfig{MaxInFlight: 8}))
	defer srv.Close()
	body := `{"workload":"intruder","machine":"Haswell","scale":0.05}`

	const n = 8
	bodies := make([][]byte, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(srv.URL+"/v1/predict", "application/json", strings.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			bodies[i], errs[i] = io.ReadAll(resp.Body)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	var first PredictResponse
	if err := json.Unmarshal(bodies[0], &first); err != nil {
		t.Fatal(err)
	}
	if first.Workload != "intruder" || len(first.Time) == 0 || first.Time[0] <= 0 {
		t.Errorf("implausible prediction: %+v", first)
	}
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Errorf("request %d answered a different body than request 0", i)
		}
	}
}

// TestLimiterBoundsInFlightRequests proves the limiter actually serializes:
// with MaxInFlight=1, collections from two different requests never
// overlap, yet every request still completes.
func TestLimiterBoundsInFlightRequests(t *testing.T) {
	var mu sync.Mutex
	active := map[string]int{} // workload → in-flight collections
	maxDistinct := 0
	slow := func(w sim.Workload, m *machine.Config, cores int, scale float64) (counters.Sample, error) {
		mu.Lock()
		active[w.Name()]++
		if d := len(active); d > maxDistinct {
			maxDistinct = d
		}
		mu.Unlock()
		time.Sleep(2 * time.Millisecond)
		smp, err := sim.Collect(w, m, cores, scale)
		mu.Lock()
		active[w.Name()]--
		if active[w.Name()] == 0 {
			delete(active, w.Name())
		}
		mu.Unlock()
		return smp, err
	}
	svc, err := New(Config{CollectSample: slow})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(svc, ServerConfig{MaxInFlight: 1}))
	defer srv.Close()

	// Distinct workloads per request, so overlap would be visible as two
	// distinct active workloads.
	wls := []string{"intruder", "genome", "kmeans", "ssca2"}
	errs := make([]error, len(wls))
	pool.ForN(len(wls), len(wls), func(i int) {
		body := fmt.Sprintf(`{"workload":%q,"machine":"Haswell","scale":0.05}`, wls[i])
		resp, err := http.Post(srv.URL+"/v1/predict", "application/json", strings.NewReader(body))
		if err != nil {
			errs[i] = err
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			errs[i] = fmt.Errorf("status %d: %s", resp.StatusCode, b)
		}
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if maxDistinct != 1 {
		t.Errorf("saw %d distinct workloads collecting at once; MaxInFlight=1 must serialize requests", maxDistinct)
	}
}

// TestHTTPRequestCancellationStopsPipeline proves a disconnecting client
// cancels its request's pipeline workers: a predict with a huge bootstrap
// count aborts promptly when the client gives up, instead of grinding
// through every replicate.
func TestHTTPRequestCancellationStopsPipeline(t *testing.T) {
	handlerDone := make(chan struct{})
	inner := newTestHandler(t, ServerConfig{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		inner.ServeHTTP(w, r)
		close(handlerDone)
	}))
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	body := `{"workload":"intruder","machine":"Haswell","scale":0.05,"bootstrap":1048576}`
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/v1/predict", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	clientDone := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		clientDone <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the request reach the bootstrap stage
	cancel()
	select {
	case <-handlerDone:
		// The handler returned: Pipeline.Run aborted its worker pools.
	case <-time.After(30 * time.Second):
		t.Fatal("handler did not return after client cancellation")
	}
	if err := <-clientDone; err == nil {
		t.Error("client should have observed a cancellation error")
	}
}

// TestSweepWorkersCappedAtServiceWorkers: the cell pool width of a sweep is
// the server's to set. A request may narrow it, but a huge "workers" in
// the body must not start more cells than Config.Workers. Every cell
// blocks in a stub collection until released; a cell is in flight from its
// fit's start until its collection returns.
func TestSweepWorkersCappedAtServiceWorkers(t *testing.T) {
	wls, _ := json.Marshal(workloads.Table4Names()[:8])
	for _, tc := range []struct {
		workers, want int
	}{
		{workers: 1048576, want: 2},
		{workers: 1, want: 1},
	} {
		t.Run(fmt.Sprint(tc.workers), func(t *testing.T) {
			release := make(chan struct{})
			var mu sync.Mutex
			started, finished, peak := 0, 0, 0
			stub := func(w sim.Workload, m *machine.Config, cores int, scale float64) (counters.Sample, error) {
				<-release
				mu.Lock()
				finished++
				mu.Unlock()
				return counters.Sample{}, errors.New("stub collection")
			}
			svc := newTestService(t, Config{Workers: 2, CollectSample: stub})
			svc.fitHook = func(string) {
				mu.Lock()
				started++
				peak = max(peak, started-finished)
				mu.Unlock()
			}
			inFlight := func() int {
				mu.Lock()
				defer mu.Unlock()
				return started - finished
			}

			type result struct {
				code int
				body []byte
			}
			done := make(chan result, 1)
			go func() {
				body := fmt.Sprintf(`{"workloads":%s,"machines":["Haswell"],"meas_cores":1,"scale":0.05,"workers":%d}`, wls, tc.workers)
				code, b := do(t, NewHandler(svc, ServerConfig{}), "POST", "/v1/sweep", body)
				done <- result{code, b}
			}()
			// Wait for the pool to fill, then give any cell beyond the cap
			// time to start before releasing the collections.
			deadline := time.Now().Add(10 * time.Second)
			for inFlight() < tc.want && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			for end := time.Now().Add(200 * time.Millisecond); inFlight() <= tc.want && time.Now().Before(end); {
				time.Sleep(time.Millisecond)
			}
			close(release)
			res := <-done

			if res.code != http.StatusOK {
				t.Fatalf("status %d: %s", res.code, res.body)
			}
			var resp SweepResponse
			if err := json.Unmarshal(res.body, &resp); err != nil {
				t.Fatal(err)
			}
			if len(resp.Cells) != 8 || resp.Failures != 8 {
				t.Errorf("sweep answered %d cells with %d failures, want 8 stubbed failures", len(resp.Cells), resp.Failures)
			}
			if peak != tc.want {
				t.Errorf(`"workers": %d ran %d cells at once on a Workers: 2 service, want %d`, tc.workers, peak, tc.want)
			}
		})
	}
}
