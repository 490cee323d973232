package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"

	"repro/internal/pool"
	"repro/internal/service"
)

// NewHandler wraps a Coordinator in the same HTTP surface as a
// single-process server (service.NewHandler): identical routes, identical
// admission gate, identical bodies — clients cannot tell the tiers apart,
// except that /readyz additionally reports the fleet.
func NewHandler(c *Coordinator, cfg service.ServerConfig) http.Handler {
	gate := service.NewGate(cfg.MaxInFlight, cfg.MaxQueue)
	local := c.cfg.Local
	mux := http.NewServeMux()
	// Probes never touch the gate: a saturated coordinator must still
	// answer its own liveness and readiness.
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		service.WriteJSON(w, http.StatusOK, map[string]any{
			"status":    "ok",
			"version":   service.APIVersion,
			"in_flight": gate.InFlight(),
			"queued":    gate.Queued(),
			"capacity":  gate.Capacity(),
		})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		service.WriteJSON(w, http.StatusOK, c.Ready(r.Context(), gate))
	})
	mux.Handle("POST /v1/predict", gate.Wrap("predict", c.relayHandler("/v1/predict", service.PredictHandler(local))))
	mux.Handle("POST /v1/sweep", gate.Wrap("sweep", service.NewSweepHandler(c.Sweep, c.SweepStream)))
	mux.Handle("POST /v1/collect", gate.Wrap("collect", c.relayHandler("/v1/collect", service.CollectHandler(local))))
	mux.Handle("POST /v1/curve", gate.Wrap("curve", c.relayHandler("/v1/curve", service.CurveHandler(local))))
	mux.Handle("POST /v1/cell", gate.Wrap("cell", c.relayHandler("/v1/cell", service.CellHandler(local))))
	// Explore plans locally (identical validation and acquisition decisions)
	// and fans each round's cells out through the same per-cell flights a
	// sweep uses — responses are byte-identical to single-process ones.
	mux.Handle("POST /v1/explore", gate.Wrap("explore", service.NewExploreHandler(c.Explore)))
	// Diagnose routes like every other scenario-keyed POST; the GET verb
	// converts its query into the canonical POST body first, so both verbs
	// share one relay (and coalesce with equivalent POSTs in flight).
	mux.Handle("POST /v1/diagnose", gate.Wrap("diagnose", c.relayHandler("/v1/diagnose", service.DiagnoseHandler(local))))
	mux.Handle("GET /v1/diagnose", gate.Wrap("diagnose", c.diagnoseGetHandler()))
	// Registry endpoints answer from the local service, never the fleet:
	// what exists cannot depend on which workers are up.
	mux.Handle("GET /v1/workloads", gate.Wrap("workloads", service.WorkloadsHandler(local.List)))
	mux.Handle("GET /v1/machines", gate.Wrap("machines", service.MachinesHandler(local.List)))
	return mux
}

// diagnoseGetHandler serves GET /v1/diagnose: parse the query exactly as a
// single process would (a bad query answers the identical error bytes),
// marshal it into the canonical POST body, and route that through the same
// relay path as POST /v1/diagnose — so both verbs coalesce together and a
// worker only ever sees the POST form.
func (c *Coordinator) diagnoseGetHandler() http.Handler {
	post := c.relayHandler("/v1/diagnose", service.DiagnoseHandler(c.cfg.Local))
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, err := service.DiagnoseRequestFromQuery(r.URL.Query())
		if err != nil {
			service.WriteError(w, err)
			return
		}
		body, err := json.Marshal(req)
		if err != nil {
			service.WriteError(w, err)
			return
		}
		pr := r.Clone(r.Context())
		pr.Method = http.MethodPost
		pr.Body = io.NopCloser(bytes.NewReader(body))
		post.ServeHTTP(w, pr)
	})
}

// readyFanout bounds concurrent worker /readyz fetches.
const readyFanout = 8

// Ready aggregates the coordinator's /readyz body: its own gate and mode,
// one WorkerReady per configured worker (ring share, router health
// verdict, and the worker's own readiness when reachable), and the
// coalescing counters.
func (c *Coordinator) Ready(ctx context.Context, gate *service.Gate) *service.ReadyResponse {
	shares := c.ring.Shares()
	workerInfo := make([]service.WorkerReady, len(c.workers))
	pool.ForN(len(c.workers), readyFanout, func(i int) {
		wr := service.WorkerReady{
			Addr:    c.workers[i],
			Healthy: c.healthy[i].Load(),
			Share:   shares[i],
		}
		fctx, cancel := context.WithTimeout(ctx, c.cfg.ProbeTimeout)
		defer cancel()
		ready, err := c.fetchReady(fctx, c.workers[i])
		if err != nil {
			wr.Error = err.Error()
		} else {
			wr.Ready = ready
		}
		workerInfo[i] = wr
	})
	relayStarted, relayHits := c.relayFlights.Stats()
	cellStarted, cellHits := c.cellFlights.Stats()
	return &service.ReadyResponse{
		APIVersion: service.APIVersion,
		Status:     "ok",
		Mode:       "coordinator",
		StoreDir:   c.cfg.Local.StoreDir(),
		Capacity:   gate.Capacity(),
		Queue:      gate.Depths(),
		Workers:    workerInfo,
		Coalesce: []service.CoalesceStat{
			{Endpoint: "relay", Started: relayStarted, Hits: relayHits},
			{Endpoint: "cell", Started: cellStarted, Hits: cellHits},
		},
	}
}

// fetchReady pulls one worker's own /readyz.
func (c *Coordinator) fetchReady(ctx context.Context, base string) (*service.ReadyResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/readyz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, service.MaxBodyBytes))
	if err != nil {
		return nil, err
	}
	var ready service.ReadyResponse
	if err := json.Unmarshal(body, &ready); err != nil {
		return nil, err
	}
	return &ready, nil
}
