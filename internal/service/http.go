package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

// ServerConfig configures the HTTP front end.
type ServerConfig struct {
	// MaxInFlight bounds concurrently executing /v1/* requests. 0 means
	// 2×NumCPU. /healthz and /readyz are never limited, so liveness and
	// readiness probes stay responsive under load.
	MaxInFlight int
	// MaxQueue bounds arrivals waiting for an in-flight slot. A saturated
	// server with a full queue answers 429 with a Retry-After header instead
	// of letting requests pile up until their contexts die. 0 means
	// 4×MaxInFlight; negative disables queueing entirely (every arrival
	// beyond MaxInFlight is rejected immediately).
	MaxQueue int
	// Mode labels this process in /readyz: "single" (the default),
	// "worker" (a shard owner behind a coordinator), or "coordinator".
	Mode string
}

// EndpointDepth is one endpoint's admission gauge snapshot: requests
// currently executing, requests queued for a slot, and the lifetime count of
// requests rejected with 429.
type EndpointDepth struct {
	Endpoint string `json:"endpoint"`
	InFlight int64  `json:"in_flight"`
	Queued   int64  `json:"queued"`
	Rejected int64  `json:"rejected"`
}

// endpointGauge is the live counter set behind one EndpointDepth.
type endpointGauge struct {
	inFlight atomic.Int64
	queued   atomic.Int64
	rejected atomic.Int64
}

// Gate is the admission controller in front of every /v1/* endpoint: a
// semaphore bounding in-flight requests plus a bounded wait queue. Arrivals
// beyond both bounds are answered 429 with Retry-After instead of blocking,
// so a saturated server degrades into fast, explicit rejections rather than
// a pile of hanging connections. Per-endpoint gauges feed /readyz.
//
// The coordinator (internal/cluster) builds its own Gate with the same
// semantics, so single-process, worker and coordinator admission behaviour
// cannot drift.
type Gate struct {
	slots    chan struct{}
	queueCap int64
	inFlight atomic.Int64
	queued   atomic.Int64

	mu     sync.Mutex
	order  []string
	gauges map[string]*endpointGauge
}

// NewGate builds a Gate from the ServerConfig bounds (see ServerConfig for
// the zero-value defaults).
func NewGate(maxInFlight, maxQueue int) *Gate {
	if maxInFlight <= 0 {
		maxInFlight = 2 * runtime.NumCPU()
	}
	switch {
	case maxQueue == 0:
		maxQueue = 4 * maxInFlight
	case maxQueue < 0:
		maxQueue = 0
	}
	return &Gate{
		slots:    make(chan struct{}, maxInFlight),
		queueCap: int64(maxQueue),
		gauges:   map[string]*endpointGauge{},
	}
}

// Capacity returns the in-flight bound.
func (g *Gate) Capacity() int { return cap(g.slots) }

// InFlight returns the number of requests currently executing.
func (g *Gate) InFlight() int64 { return g.inFlight.Load() }

// Queued returns the number of requests currently waiting for a slot.
func (g *Gate) Queued() int64 { return g.queued.Load() }

// register returns (creating if needed) the gauge for one endpoint label.
// Endpoints are registered at handler-construction time, so the set is fixed
// before any request arrives.
func (g *Gate) register(endpoint string) *endpointGauge {
	g.mu.Lock()
	defer g.mu.Unlock()
	if eg, ok := g.gauges[endpoint]; ok {
		return eg
	}
	eg := &endpointGauge{}
	g.gauges[endpoint] = eg
	g.order = append(g.order, endpoint)
	return eg
}

// Depths snapshots every endpoint's admission gauges in registration order,
// so /readyz bodies are deterministic.
func (g *Gate) Depths() []EndpointDepth {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]EndpointDepth, 0, len(g.order))
	for _, name := range g.order {
		eg := g.gauges[name]
		out = append(out, EndpointDepth{
			Endpoint: name,
			InFlight: eg.inFlight.Load(),
			Queued:   eg.queued.Load(),
			Rejected: eg.rejected.Load(),
		})
	}
	return out
}

// maxRetryAfterSeconds caps the Retry-After hint: past a point a bigger
// backlog says "come back much later", and 8s is already longer than any
// warm request takes.
const maxRetryAfterSeconds = 8

// retryAfter computes the Retry-After hint of a 429: one polite second as
// the floor, plus the current backlog (executing + queued) measured in
// multiples of the server's own capacity. A server one-deep in work says
// "2"; one drowning four capacities deep says "5" — so coordinators that
// honor the hint spread their retries with the actual load instead of
// hammering a fixed beat.
func (g *Gate) retryAfter() string {
	load := g.inFlight.Load() + g.queued.Load()
	secs := 1 + load/int64(cap(g.slots))
	if secs > maxRetryAfterSeconds {
		secs = maxRetryAfterSeconds
	}
	return strconv.FormatInt(secs, 10)
}

// Wrap gates a handler under the endpoint's label: a free slot admits
// immediately; otherwise the request queues while the bounded queue has
// room, and is rejected with 429 + Retry-After once it does not. A client
// that gives up while queued is answered 503 (nothing else is left to say,
// but proxies that still listen get a truthful status).
func (g *Gate) Wrap(endpoint string, next http.Handler) http.Handler {
	eg := g.register(endpoint)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case g.slots <- struct{}{}:
		default:
			// Saturated: take a queue ticket or reject. The Add/undo pair
			// keeps the bound exact under concurrent arrivals.
			if g.queued.Add(1) > g.queueCap {
				g.queued.Add(-1)
				eg.rejected.Add(1)
				w.Header().Set("Retry-After", g.retryAfter())
				writeJSON(w, http.StatusTooManyRequests,
					errorJSON{Error: fmt.Sprintf("server saturated: %d in flight and %d queued; retry later", cap(g.slots), g.queueCap)})
				return
			}
			eg.queued.Add(1)
			select {
			case g.slots <- struct{}{}:
				eg.queued.Add(-1)
				g.queued.Add(-1)
			case <-r.Context().Done():
				eg.queued.Add(-1)
				g.queued.Add(-1)
				writeJSON(w, http.StatusServiceUnavailable, errorJSON{Error: "request cancelled while queued"})
				return
			}
		}
		g.inFlight.Add(1)
		eg.inFlight.Add(1)
		defer func() {
			eg.inFlight.Add(-1)
			g.inFlight.Add(-1)
			<-g.slots
		}()
		next.ServeHTTP(w, r)
	})
}

// errorJSON is the error body of every non-2xx response.
type errorJSON struct {
	Error string `json:"error"`
}

// NewHandler wraps a Service in the HTTP/JSON API:
//
//	POST /v1/predict              PredictRequest  → PredictResponse
//	POST /v1/sweep                SweepRequest    → SweepResponse
//	POST /v1/sweep?stream=ndjson  SweepRequest    → NDJSON SweepStreamLines
//	POST /v1/collect              CollectRequest  → CollectResponse
//	POST /v1/curve                CurveRequest    → CurveResponse
//	POST /v1/cell                 CellRequest     → CellResponse
//	POST /v1/explore              ExploreRequest  → ExploreResponse
//	POST /v1/diagnose             DiagnoseRequest → DiagnoseResponse
//	GET  /v1/diagnose             (query params)  → DiagnoseResponse
//	GET  /v1/workloads                            → WorkloadsResponse
//	GET  /v1/machines                             → MachinesResponse
//	GET  /healthz                                 → liveness + gauges
//	GET  /readyz                                  → ReadyResponse
//
// Every /v1/* request runs under the admission gate and the request's
// context, so a disconnecting client cancels its pipeline workers and a
// saturated server rejects with 429 instead of hanging. /healthz and
// /readyz never touch the gate: probes must answer even when every slot and
// queue ticket is taken.
func NewHandler(svc *Service, cfg ServerConfig) http.Handler {
	gate := NewGate(cfg.MaxInFlight, cfg.MaxQueue)
	mode := cfg.Mode
	if mode == "" {
		mode = "single"
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{
			"status":    "ok",
			"version":   APIVersion,
			"in_flight": gate.InFlight(),
			"queued":    gate.Queued(),
			"capacity":  gate.Capacity(),
		})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, &ReadyResponse{
			APIVersion: APIVersion,
			Status:     "ok",
			Mode:       mode,
			StoreDir:   svc.StoreDir(),
			Capacity:   gate.Capacity(),
			Queue:      gate.Depths(),
		})
	})
	mux.Handle("POST /v1/predict", gate.Wrap("predict", PredictHandler(svc)))
	mux.Handle("POST /v1/sweep", gate.Wrap("sweep", NewSweepHandler(svc.SweepStream)))
	mux.Handle("POST /v1/collect", gate.Wrap("collect", CollectHandler(svc)))
	mux.Handle("POST /v1/curve", gate.Wrap("curve", CurveHandler(svc)))
	mux.Handle("POST /v1/cell", gate.Wrap("cell", CellHandler(svc)))
	mux.Handle("POST /v1/explore", gate.Wrap("explore", ExploreHandler(svc)))
	// Diagnose speaks both verbs: POST carries the typed request, GET the
	// same fields as query parameters (handy from a browser or curl).
	mux.Handle("POST /v1/diagnose", gate.Wrap("diagnose", DiagnoseHandler(svc)))
	mux.Handle("GET /v1/diagnose", gate.Wrap("diagnose", DiagnoseGetHandler(svc)))
	// ?schemas=1 on the GET endpoints additionally returns each family's
	// parameter schema (the spec grammar's keys, types, bounds, defaults).
	mux.Handle("GET /v1/workloads", gate.Wrap("workloads", WorkloadsHandler(svc.List)))
	mux.Handle("GET /v1/machines", gate.Wrap("machines", MachinesHandler(svc.List)))
	return mux
}

// PredictHandler is the bare (ungated) POST /v1/predict handler. The
// coordinator reuses it as its local-fallback executor, so degraded-mode
// responses stay byte-identical to single-process ones.
func PredictHandler(svc *Service) http.Handler { return handleJSON(svc.Predict) }

// CollectHandler is the bare POST /v1/collect handler.
func CollectHandler(svc *Service) http.Handler { return handleJSON(svc.Collect) }

// CurveHandler is the bare POST /v1/curve handler.
func CurveHandler(svc *Service) http.Handler { return handleJSON(svc.Curve) }

// CellHandler is the bare POST /v1/cell handler: one planned sweep cell,
// the unit the coordinator routes to workers.
func CellHandler(svc *Service) http.Handler { return handleJSON(svc.Cell) }

// ExploreHandler is the bare POST /v1/explore handler.
func ExploreHandler(svc *Service) http.Handler { return handleJSON(svc.Explore) }

// NewExploreHandler serves POST /v1/explore over any explore implementation
// — the Service's own, or the cluster coordinator's, whose responses are
// therefore byte-identical by construction.
func NewExploreHandler(explore func(context.Context, ExploreRequest) (*ExploreResponse, error)) http.Handler {
	return handleJSON(explore)
}

// DiagnoseHandler is the bare POST /v1/diagnose handler.
func DiagnoseHandler(svc *Service) http.Handler { return handleJSON(svc.Diagnose) }

// DiagnoseGetHandler is the bare GET /v1/diagnose handler: the query
// parameters build the same DiagnoseRequest the POST body carries, so both
// verbs answer byte-identically.
func DiagnoseGetHandler(svc *Service) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, err := DiagnoseRequestFromQuery(r.URL.Query())
		if err != nil {
			writeError(w, err)
			return
		}
		resp, err := svc.Diagnose(r.Context(), req)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	})
}

// WorkloadsHandler is the bare GET /v1/workloads handler over any List
// implementation (the coordinator passes its local service's List: registry
// answers must not depend on the fleet).
func WorkloadsHandler(list func(context.Context, ListRequest) (*ListResponse, error)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		resp, err := list(r.Context(), ListRequest{Verbose: wantSchemas(r)})
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, WorkloadsResponse{
			APIVersion: resp.APIVersion,
			Workloads:  resp.Workloads,
			Families:   resp.WorkloadFamilies,
		})
	})
}

// MachinesHandler is the bare GET /v1/machines handler; see WorkloadsHandler.
func MachinesHandler(list func(context.Context, ListRequest) (*ListResponse, error)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		resp, err := list(r.Context(), ListRequest{Verbose: wantSchemas(r)})
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, MachinesResponse{
			APIVersion: resp.APIVersion,
			Machines:   resp.Machines,
			Families:   resp.MachineFamilies,
		})
	})
}

// wantSchemas reads the ?schemas= flag of the GET endpoints: explicit
// falsy values ("0", "false") keep the compact body, anything else
// non-empty asks for the parameter schemas.
func wantSchemas(r *http.Request) bool {
	switch r.URL.Query().Get("schemas") {
	case "", "0", "false":
		return false
	}
	return true
}

// NewSweepHandler serves POST /v1/sweep over any streaming sweep — the
// Service's own, or the coordinator's fleet fan-out, which therefore
// answers byte-identical bodies by construction. Without a stream parameter
// it is the plain request/response exchange, the stream buffered; with
// ?stream=ndjson it streams one SweepStreamLine per finished cell — in
// deterministic plan order, each flushed as it completes — plus a final
// summary line, so a client watching a long sweep sees cells as they land
// instead of one response at the end.
func NewSweepHandler(stream func(context.Context, SweepRequest, func(SweepCell) error) (*SweepSummary, error)) http.Handler {
	plain := handleJSON(func(ctx context.Context, req SweepRequest) (*SweepResponse, error) {
		return bufferSweep(ctx, req, stream)
	})
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Query().Get("stream") {
		case "":
			plain.ServeHTTP(w, r)
			return
		case "ndjson":
		default:
			writeJSON(w, http.StatusBadRequest,
				errorJSON{Error: fmt.Sprintf("unknown stream format %q (want ndjson)", r.URL.Query().Get("stream"))})
			return
		}
		req, ok := decodeRequest[SweepRequest](w, r)
		if !ok {
			return
		}
		flusher, _ := w.(http.Flusher)
		enc := json.NewEncoder(w)
		streaming := false
		writeLine := func(line SweepStreamLine) error {
			if !streaming {
				// The header is written lazily so a sweep that fails
				// validation still answers a proper error status.
				w.Header().Set("Content-Type", "application/x-ndjson")
				w.WriteHeader(http.StatusOK)
				streaming = true
			}
			if err := enc.Encode(line); err != nil {
				return err
			}
			if flusher != nil {
				flusher.Flush()
			}
			return nil
		}
		sum, err := stream(r.Context(), req, func(c SweepCell) error {
			return writeLine(SweepStreamLine{Cell: &c})
		})
		if err != nil {
			if !streaming {
				writeError(w, err)
				return
			}
			// Mid-stream there is no status code left to change; a final
			// error line documents the truncation for the client.
			writeLine(SweepStreamLine{Error: err.Error()})
			return
		}
		writeLine(SweepStreamLine{Summary: sum})
	})
}

// MaxBodyBytes bounds request bodies. The largest legitimate request is a
// replayed measurement-series document (~100 KB for a 48-core series); 8 MB
// leaves generous headroom while keeping a hostile body from ballooning
// server memory. The coordinator's relay path applies the same cap, so a
// request's size limit is identical at every tier.
const MaxBodyBytes = 8 << 20

// decodeRequest strictly decodes a size-capped request body, answering 400
// itself on failure (ok reports success). Every /v1/* endpoint — buffered
// and streaming alike — decodes through it, so the strict-decoding contract
// cannot drift between endpoints.
func decodeRequest[Req any](w http.ResponseWriter, r *http.Request) (Req, bool) {
	var req Req
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorJSON{Error: fmt.Sprintf("decoding request: %v", err)})
		return req, false
	}
	return req, true
}

// handleJSON adapts one typed service method to HTTP: decode the
// size-capped request body strictly, execute under the request context,
// encode the response.
func handleJSON[Req any, Resp any](fn func(context.Context, Req) (*Resp, error)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, ok := decodeRequest[Req](w, r)
		if !ok {
			return
		}
		resp, err := fn(r.Context(), req)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	})
}

// WriteError maps service errors to status codes: the caller's fault → 400,
// a dead client → 499 (nginx's convention for "client closed request"),
// deadline → 504, everything else → 500. Exported for the coordinator,
// whose error bodies must be byte-identical to a single process's.
func WriteError(w http.ResponseWriter, err error) { writeError(w, err) }

func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case IsBadRequest(err):
		status = http.StatusBadRequest
	case errors.Is(err, context.Canceled):
		status = 499
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	}
	writeJSON(w, status, errorJSON{Error: err.Error()})
}

// WriteJSON writes v as the indented JSON body every endpoint answers with;
// exported for the coordinator so its locally produced bodies (readiness,
// registry answers) share the exact encoding.
func WriteJSON(w http.ResponseWriter, status int, v any) { writeJSON(w, status, v) }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) // the response is already built; a broken pipe here is the client's problem
}
