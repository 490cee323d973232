package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/ring"
	"repro/internal/machine"
	"repro/internal/service"
	"repro/internal/workloads"
)

// fleetWorkers is the fleet size: two `estima serve -worker` services.
const fleetWorkers = 2

// fleetClients is the number of closed-loop clients.
const fleetClients = 2

// subWindowSeconds is the length of the slices whose medians the
// warm-fleet end-to-end metrics report.
const subWindowSeconds = 1.0

// mixEntry is one request of the warm-fleet mix.
type mixEntry struct {
	endpoint string // metric label: warm.<endpoint>_ms_p50
	method   string
	path     string // path plus query
	body     []byte
	// owner is the index of the worker that owns the scenario (-1 for
	// requests that are not routed to one worker).
	owner int
	// direct calls the owner's Service in process for the same request.
	direct func(ctx context.Context, svc *service.Service) (any, error)
}

// fleetBench is the warm-fleet workload: an in-process coordinator over two
// workers on loopback HTTP, each built with `estima serve` defaults, every
// mix entry warmed in set-up; two clients then poll the mix closed-loop.
type fleetBench struct {
	e       *env
	mix     []mixEntry
	golden  [][]byte
	workers []*service.Service
	inproc  []http.Handler // each worker's handler, served in process
	urls    []string
	local   *service.Service
	coord   *cluster.Coordinator
	front   string
	servers []*http.Server
	serveWG sync.WaitGroup
	client  *http.Client
	ownerOf *ring.Ring
}

func newFleetBench(e *env) bench { return &fleetBench{e: e} }

// buildMix builds the fixed mix over the accuracy subset on Xeon20:
// predict (with comparison), diagnose by POST and GET, and the one-cell
// endpoint per scenario, one sweep over all of them fanned out over
// /v1/cell, and the two registry reads.
func (f *fleetBench) buildMix() ([]mixEntry, error) {
	scale := f.e.o.scale
	m, err := machine.Lookup("Xeon20")
	if err != nil {
		return nil, err
	}
	var mix []mixEntry
	for _, name := range accuracySubset {
		w, err := workloads.Lookup(name)
		if err != nil {
			return nil, err
		}
		owner := f.ownerOf.Seq(service.RouteKey(w.Name(), m.Name))[0]
		soft := usesSoftwareStalls(name)
		pr := service.PredictRequest{Workload: name, Machine: m.Name, Scale: scale, Soft: soft, Compare: true}
		dr := service.DiagnoseRequest{Workload: name, Machine: m.Name, Scale: scale, Soft: soft}
		cr := service.CellRequest{Workload: name, Machine: m.Name, Scale: scale, Soft: soft}
		q := url.Values{"workload": {name}, "machine": {m.Name},
			"scale": {strconv.FormatFloat(scale, 'g', -1, 64)}, "soft": {strconv.FormatBool(soft)}}
		mix = append(mix,
			mixEntry{endpoint: "predict", method: http.MethodPost, path: "/v1/predict", body: mustJSON(pr), owner: owner,
				direct: func(ctx context.Context, s *service.Service) (any, error) { return s.Predict(ctx, pr) }},
			mixEntry{endpoint: "diagnose_post", method: http.MethodPost, path: "/v1/diagnose", body: mustJSON(dr), owner: owner,
				direct: func(ctx context.Context, s *service.Service) (any, error) { return s.Diagnose(ctx, dr) }},
			mixEntry{endpoint: "diagnose_get", method: http.MethodGet, path: "/v1/diagnose?" + q.Encode(), owner: owner,
				direct: func(ctx context.Context, s *service.Service) (any, error) {
					req, err := service.DiagnoseRequestFromQuery(q)
					if err != nil {
						return nil, err
					}
					return s.Diagnose(ctx, req)
				}},
			mixEntry{endpoint: "cell", method: http.MethodPost, path: "/v1/cell", body: mustJSON(cr), owner: owner,
				direct: func(ctx context.Context, s *service.Service) (any, error) { return s.Cell(ctx, cr) }},
		)
	}
	sr := service.SweepRequest{Workloads: accuracySubset, Machines: []string{m.Name}, Scale: scale}
	mix = append(mix,
		mixEntry{endpoint: "sweep", method: http.MethodPost, path: "/v1/sweep", body: mustJSON(sr), owner: -1},
		mixEntry{endpoint: "workloads", method: http.MethodGet, path: "/v1/workloads", owner: -1},
		mixEntry{endpoint: "machines", method: http.MethodGet, path: "/v1/machines", owner: -1},
	)
	return mix, nil
}

func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain request structs always encode
	}
	return data
}

// serve starts an http.Server like `estima serve` does on a free loopback
// port and returns its base URL.
func (f *fleetBench) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second, ReadTimeout: time.Minute}
	f.servers = append(f.servers, srv)
	f.serveWG.Add(1)
	go func() {
		defer f.serveWG.Done()
		srv.Serve(ln) // returns http.ErrServerClosed at teardown
	}()
	return "http://" + ln.Addr().String(), nil
}

func (f *fleetBench) setup(ctx context.Context) error {
	e := f.e
	f.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}}
	f.workers, f.inproc, f.urls = nil, nil, nil
	for i := 0; i < fleetWorkers; i++ {
		svc, err := e.newService("")
		if err != nil {
			return err
		}
		cfg := service.ServerConfig{Mode: "worker"}
		u, err := f.serve(service.NewHandler(svc, cfg))
		if err != nil {
			return err
		}
		f.workers = append(f.workers, svc)
		f.inproc = append(f.inproc, service.NewHandler(svc, cfg))
		f.urls = append(f.urls, u)
	}
	local, err := e.newService("")
	if err != nil {
		return err
	}
	f.local = local
	f.coord, err = cluster.New(cluster.Config{Workers: f.urls, Local: local, Retries: 2, ProbeInterval: 2 * time.Second})
	if err != nil {
		return err
	}
	if f.front, err = f.serve(cluster.NewHandler(f.coord, service.ServerConfig{Mode: "coordinator"})); err != nil {
		return err
	}
	f.ownerOf = ring.New(f.urls)
	if f.mix, err = f.buildMix(); err != nil {
		return err
	}
	// Collect each scenario's full 1..20 series first (the comparison
	// truth), so the 1..10 windows are served as its prefix; then warm
	// every mix entry through the coordinator. The warmed bodies are the
	// reference every timed response must repeat byte for byte.
	for _, name := range accuracySubset {
		cr := service.CollectRequest{Workload: name, Machine: "Xeon20", Cores: "1-20", Scale: e.o.scale}
		m := mixEntry{method: http.MethodPost, path: "/v1/collect", body: mustJSON(cr)}
		if status, body, err := f.do(ctx, f.front, m); err != nil || status != http.StatusOK {
			return fmt.Errorf("collecting %s: status %d: %v %.200s", name, status, err, body)
		}
	}
	f.golden = make([][]byte, len(f.mix))
	for i, m := range f.mix {
		status, body, err := f.do(ctx, f.front, m)
		if err != nil {
			return fmt.Errorf("warming %s %s: %w", m.method, m.path, err)
		}
		if status != http.StatusOK {
			return fmt.Errorf("warming %s %s: status %d: %s", m.method, m.path, status, body)
		}
		f.golden[i] = body
	}
	return nil
}

func (f *fleetBench) teardown() {
	for _, s := range f.servers {
		s.Close()
	}
	f.serveWG.Wait()
	f.servers = nil
	if f.coord != nil {
		f.coord.Close()
		f.coord = nil
	}
	if f.client != nil {
		f.client.CloseIdleConnections()
	}
}

// do issues one mix entry against base and reads the whole body.
func (f *fleetBench) do(ctx context.Context, base string, m mixEntry) (int, []byte, error) {
	var body io.Reader
	if m.body != nil {
		body = bytes.NewReader(m.body)
	}
	req, err := http.NewRequestWithContext(ctx, m.method, base+m.path, body)
	if err != nil {
		return 0, nil, err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// counters sums the fleet's simulation and fit counters.
func (f *fleetBench) counters() (sims, fits, memo int64) {
	for _, s := range append([]*service.Service{f.local}, f.workers...) {
		c, h := s.FitCacheStats()
		fits += c
		memo += h
	}
	return f.e.simCalls.Load(), fits, memo
}

// ready reads the coordinator's /readyz: 429 rejections across the fleet's
// gates, and the coalescing counters.
func (f *fleetBench) ready(ctx context.Context) (rejected, started, hits int64, err error) {
	status, body, err := f.do(ctx, f.front, mixEntry{method: http.MethodGet, path: "/readyz"})
	if err != nil {
		return 0, 0, 0, err
	}
	if status != http.StatusOK {
		return 0, 0, 0, fmt.Errorf("/readyz: status %d", status)
	}
	var r service.ReadyResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return 0, 0, 0, fmt.Errorf("/readyz: %w", err)
	}
	queues := [][]service.EndpointDepth{r.Queue}
	for _, w := range r.Workers {
		if w.Ready == nil {
			return 0, 0, 0, fmt.Errorf("/readyz: worker %s unreachable: %s", w.Addr, w.Error)
		}
		queues = append(queues, w.Ready.Queue)
	}
	for _, q := range queues {
		for _, d := range q {
			rejected += d.Rejected
		}
	}
	for _, c := range r.Coalesce {
		started += c.Started
		hits += c.Hits
	}
	return rejected, started, hits, nil
}

func (f *fleetBench) window(ctx context.Context, tr *tracer) (*window, error) {
	win := &window{}
	sims0, fits0, memo0 := f.counters()
	rej0, started0, hits0, err := f.ready(ctx)
	if err != nil {
		return nil, err
	}

	// Each client walks its own seed-permuted order of the mix, cycle after
	// cycle; its place in the order carries over from slice to slice.
	type client struct {
		cycle      uint64
		order      []int
		attempted  int
		failed     int
		mismatched int
		errs       []string
	}
	clients := make([]client, fleetClients)
	seconds := f.e.windowSeconds()
	nsub := max(1, int(math.Round(seconds/subWindowSeconds)))
	subLen := time.Duration(seconds / float64(nsub) * float64(time.Second))
	win.sub = make([]subWindow, nsub)
	// The fleet is idle between slices: a burst of loopback probes runs
	// before each slice and after the last, and a slice's host factor
	// takes the bursts on both sides of it.
	probe := newLoopProbe()
	defer probe.close()
	var bursts [][]float64
	for k := range win.sub {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		burst, err := probe.burst(ctx)
		if err != nil {
			return nil, err
		}
		bursts = append(bursts, burst)
		sub := &win.sub[k]
		lat := make([][]float64, fleetClients)
		start := time.Now()
		deadline := start.Add(subLen)
		var wg sync.WaitGroup
		for c := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				cl := &clients[c]
				for time.Now().Before(deadline) && ctx.Err() == nil {
					if len(cl.order) == 0 {
						cl.order = permutation(len(f.mix), f.e.o.seed, uint64(c)<<32|cl.cycle)
						cl.cycle++
					}
					i := cl.order[0]
					cl.order = cl.order[1:]
					m := f.mix[i]
					reqID := tr.newReq()
					sp := tr.start("http."+m.endpoint, 0, reqID)
					t := time.Now()
					status, body, err := f.do(ctx, f.front, m)
					d := time.Since(t)
					sp.end()
					cl.attempted++
					switch {
					case err != nil:
						cl.failed++
						cl.errs = append(cl.errs, err.Error())
					case status != http.StatusOK:
						// 429 refusals count as failures and are not
						// retried, so shedding cannot hide as latency.
						cl.failed++
						cl.errs = append(cl.errs, fmt.Sprintf("%s %s: status %d", m.method, m.path, status))
					default:
						lat[c] = append(lat[c], float64(d.Nanoseconds())/1e6)
						if !bytes.Equal(body, f.golden[i]) {
							cl.mismatched++
						}
					}
				}
			}()
		}
		wg.Wait()
		sub.seconds = time.Since(start).Seconds()
		win.elapsed += sub.seconds
		for _, l := range lat {
			sub.lat = append(sub.lat, l...)
		}
		win.lat = append(win.lat, sub.lat...)
	}
	burst, err := probe.burst(ctx)
	if err != nil {
		return nil, err
	}
	bursts = append(bursts, burst)
	for k := range win.sub {
		win.sub[k].factor = hostFactor(append(append([]float64(nil), bursts[k]...), bursts[k+1]...), loopRefMs)
	}
	for _, cl := range clients {
		win.attempted += cl.attempted
		win.failed += cl.failed
		if cl.mismatched > 0 {
			win.failf("warm-fleet: %d responses differ from the warmed bytes", cl.mismatched)
		}
		for j, msg := range cl.errs {
			if j == 3 {
				win.failf("warm-fleet: ... %d more failures", len(cl.errs)-3)
				break
			}
			win.failf("warm-fleet: %s", msg)
		}
	}

	var replays *fleetReplays
	if tr != nil {
		if replays, err = f.replay(ctx, tr); err != nil {
			return nil, err
		}
	}
	sims1, fits1, memo1 := f.counters()
	if sims1 != sims0 {
		win.failf("warm-fleet: %d simulations while warm, want 0", sims1-sims0)
	}
	if fits1 != fits0 {
		win.failf("warm-fleet: %d fits computed while warm, want 0", fits1-fits0)
	}
	rej1, started1, hits1, err := f.ready(ctx)
	if err != nil {
		return nil, err
	}
	hitRatio := f.score(win)
	f.e.logf("warm-fleet: %d requests in %.2fs, %d failed", win.attempted, win.elapsed, win.failed)
	if tr != nil {
		lm := layerMetrics()
		set(lm, "service.fit_memo_hits", float64(memo1-memo0))
		set(lm, "service.fits_computed", float64(fits1-fits0))
		set(lm, "sim.calls", float64(sims1-sims0))
		set(lm, "service.gate_rejected", float64(rej1-rej0))
		if n := (started1 - started0) + (hits1 - hits0); n > 0 {
			set(lm, "cluster.coalesce_hit_ratio", float64(hits1-hits0)/float64(n))
		}
		set(lm, "store.hit_ratio", hitRatio)
		for _, ep := range warmEndpoints {
			set(lm, "warm."+ep+"_ms_p50", orZero(median(tr.durationsMs("http."+ep))))
		}
		set(lm, "service.http_ms_p50", replays.diff("service.handler", "service.direct"))
		set(lm, "service.encode_ms_p50", replays.med("service.encode"))
		set(lm, "net.loopback_ms_p50", replays.diff("net.worker", "service.handler"))
		set(lm, "cluster.relay_ms_p50", replays.diff("cluster.coordinator", "net.worker"))
		for i, name := range win.acc.names {
			set(lm, "core.err_pct."+metricName(name), win.acc.maxErr[i])
		}
		win.layers = lm
	}
	return win, nil
}

// score checks every warmed routable response against a direct Service
// call on its owning worker (byte-identical, as the HTTP layer encodes it)
// and scores the compared predictions. It returns the share of predict
// responses whose series was a store replay.
func (f *fleetBench) score(win *window) float64 {
	hits, predicts := 0, 0
	for i, m := range f.mix {
		if m.direct == nil {
			continue
		}
		resp, err := m.direct(context.Background(), f.workers[m.owner])
		if err != nil {
			win.failf("direct %s %s: %v", m.method, m.path, err)
			continue
		}
		if want := indentJSON(resp); !bytes.Equal(want, f.golden[i]) {
			win.failf("%s %s: coordinator response differs from a direct Service call", m.method, m.path)
		}
		if pr, ok := resp.(*service.PredictResponse); ok {
			predicts++
			if pr.CacheHit {
				hits++
			}
			win.acc.add(pr.Workload, scoreCompared(win, "warm "+pr.Workload, pr, 10))
		}
	}
	win.acc.print(f.e, "warm-fleet accuracy")
	return float64(hits) / float64(max(predicts, 1))
}

// indentJSON encodes v exactly as the service's HTTP layer does.
func indentJSON(v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil
	}
	return buf.Bytes()
}

// fleetReplayReps is how many times the replay phase re-issues each
// routable mix entry at every layer boundary.
const fleetReplayReps = 15

// fleetReplays holds, per routable mix entry, the replayed durations (ms)
// of each layer boundary.
type fleetReplays struct {
	byEntry []map[string][]float64
}

// replay re-issues each routable mix entry, after the traced window, at
// each boundary of its path: the coordinator over its socket, the owning
// worker over its socket, the same worker's handler in process, the direct
// Service call, and the response encoding.
func (f *fleetBench) replay(ctx context.Context, tr *tracer) (*fleetReplays, error) {
	out := &fleetReplays{}
	for _, m := range f.mix {
		if m.direct == nil {
			continue
		}
		durs := map[string][]float64{}
		record := func(sp *openSpan) { durs[sp.s.Name] = append(durs[sp.s.Name], float64(sp.end().Nanoseconds())/1e6) }
		for r := 0; r < fleetReplayReps; r++ {
			reqID := tr.newReq()
			root := tr.replay("replay."+m.endpoint, 0, reqID)
			for _, hop := range []struct {
				name string
				base string
			}{{"cluster.coordinator", f.front}, {"net.worker", f.urls[m.owner]}} {
				sp := tr.replay(hop.name, root.id(), reqID)
				status, _, err := f.do(ctx, hop.base, m)
				record(sp)
				if err != nil || status != http.StatusOK {
					return nil, fmt.Errorf("replay %s %s via %s: status %d: %v", m.method, m.path, hop.name, status, err)
				}
			}
			var body io.Reader
			if m.body != nil {
				body = bytes.NewReader(m.body)
			}
			hreq := httptest.NewRequestWithContext(ctx, m.method, m.path, body)
			rec := httptest.NewRecorder()
			sp := tr.replay("service.handler", root.id(), reqID)
			f.inproc[m.owner].ServeHTTP(rec, hreq)
			record(sp)
			if rec.Code != http.StatusOK {
				return nil, fmt.Errorf("replay %s %s in process: status %d", m.method, m.path, rec.Code)
			}
			sp = tr.replay("service.direct", root.id(), reqID)
			resp, err := m.direct(ctx, f.workers[m.owner])
			record(sp)
			if err != nil {
				return nil, err
			}
			sp = tr.replay("service.encode", root.id(), reqID)
			_, err = json.Marshal(resp)
			record(sp)
			if err != nil {
				return nil, err
			}
			root.end()
		}
		out.byEntry = append(out.byEntry, durs)
	}
	return out, nil
}

// diff is the median over mix entries of each entry's median a minus its
// median b: the time the boundary between the two adds.
func (r *fleetReplays) diff(a, b string) float64 {
	var ds []float64
	for _, d := range r.byEntry {
		ds = append(ds, median(d[a])-median(d[b]))
	}
	return orZero(median(ds))
}

// med is the median over mix entries of each entry's median.
func (r *fleetReplays) med(name string) float64 {
	var ds []float64
	for _, d := range r.byEntry {
		ds = append(ds, median(d[name]))
	}
	return orZero(median(ds))
}
