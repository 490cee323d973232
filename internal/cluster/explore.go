package cluster

import (
	"context"

	"repro/internal/pool"
	"repro/internal/service"
)

// Explore answers an ExploreRequest across the fleet. Every planning
// decision — validation, grid order, farthest-point seeding, acquisition,
// estimation — runs in the embedded local service's ExploreWith, so the
// coordinator cannot drift from a single process by construction; only the
// execution of each round's batch is substituted with the per-cell fleet
// fan-out a sweep uses (same routing, same cross-request coalescing by fit
// identity, same ring failover and local fallback).
func (c *Coordinator) Explore(ctx context.Context, req service.ExploreRequest) (*service.ExploreResponse, error) {
	return c.cfg.Local.ExploreWith(ctx, req, c.runExploreBatch)
}

// runExploreBatch executes one explore round against the fleet: one
// /v1/cell per job, coalesced by fit identity and routed by scenario
// identity, bounded by the plan's worker count. Failures land in the cell's
// Error exactly as they do in a sweep.
func (c *Coordinator) runExploreBatch(ctx context.Context, jobs []service.ExploreCellJob, workers int) ([]service.SweepCell, error) {
	out := make([]service.SweepCell, len(jobs))
	pool.ForN(len(jobs), workers, func(i int) {
		job := jobs[i]
		cell, err := c.cellFlights.Do(ctx, job.FitKey, func(fctx context.Context) (service.SweepCell, error) {
			return c.executeCell(fctx, job.Req, job.RouteKey)
		})
		if err != nil {
			out[i] = service.SweepCell{Workload: job.Req.Workload, Machine: job.Req.Machine,
				MeasCores: job.Req.MeasCores, Error: err.Error()}
			return
		}
		out[i] = cell
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
