package cluster

import (
	"context"
	"encoding/json"
	"net/http"

	"repro/internal/service"
)

// SweepStream answers a SweepRequest across the fleet. Planning, plan-order
// emission and the summary run in the embedded local service's
// SweepStreamWith; only each cell's execution is substituted (runCell), so
// the NDJSON a client sees is byte-identical to single-process output.
func (c *Coordinator) SweepStream(ctx context.Context, req service.SweepRequest, emit func(service.SweepCell) error) (*service.SweepSummary, error) {
	return c.cfg.Local.SweepStreamWith(ctx, req, c.runCell, emit)
}

// Explore answers an ExploreRequest across the fleet. Every planning
// decision — validation, grid order, farthest-point seeding, acquisition,
// estimation — runs in the embedded local service's ExploreWith, so the
// coordinator cannot drift from a single process by construction; each
// round's cells run through the same runCell a sweep uses.
func (c *Coordinator) Explore(ctx context.Context, req service.ExploreRequest) (*service.ExploreResponse, error) {
	return c.cfg.Local.ExploreWith(ctx, req, c.runCell)
}

// runCell is the coordinator's CellRunner: one /v1/cell request per cell,
// routed by scenario identity and coalesced by fit identity, so two
// overlapping sweeps or explores (even from different clients) asking for
// the same (series, options, targets) artifact share one worker request.
// Worker failures fail over along the ring and bottom out at the local
// service; only the caller's own cancellation surfaces as an error.
func (c *Coordinator) runCell(ctx context.Context, job service.CellJob) (service.SweepCell, error) {
	return c.cellFlights.Do(ctx, job.FitKey, func(fctx context.Context) (service.SweepCell, error) {
		return c.executeCell(fctx, job.Req, job.RouteKey)
	})
}

// executeCell runs one CellRequest against the fleet: route along the
// ring, decode the worker's cell, or — when no worker can answer — execute
// on the embedded local service (cold, correct, slower). Decoded-then-
// re-encoded cells are byte-stable: encoding/json round-trips every float64
// to the identical shortest representation.
func (c *Coordinator) executeCell(ctx context.Context, req service.CellRequest, routeKey string) (service.SweepCell, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return service.SweepCell{}, err
	}
	if res, rerr := c.relay(ctx, "/v1/cell", routeKey, body); rerr == nil && res.status == http.StatusOK {
		var cr service.CellResponse
		if json.Unmarshal(res.body, &cr) == nil {
			return cr.Cell, nil
		}
	}
	if err := ctx.Err(); err != nil {
		// Every waiter of this cell flight is gone: return the cancellation
		// instead of burning a local simulation nobody will read.
		return service.SweepCell{}, err
	}
	cr, err := c.cfg.Local.Cell(ctx, req)
	if err != nil {
		return service.SweepCell{}, err
	}
	return cr.Cell, nil
}
