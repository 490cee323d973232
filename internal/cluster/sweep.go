package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"

	"repro/internal/service"
)

// SweepStream answers a SweepRequest across the fleet: plan locally
// (identical validation, identical deterministic plan order), execute one
// /v1/cell request per cell routed by scenario identity, and emit cells
// strictly in plan order — the same contract as service.SweepStream, so
// the NDJSON a client sees is byte-identical to single-process output.
func (c *Coordinator) SweepStream(ctx context.Context, req service.SweepRequest, emit func(service.SweepCell) error) (*service.SweepSummary, error) {
	plan, err := c.cfg.Local.PlanSweep(req)
	if err != nil {
		return nil, err
	}
	n := len(plan.Cells)
	cells := make([]service.SweepCell, n)
	done := make([]chan struct{}, n)
	for i := range done {
		done[i] = make(chan struct{})
	}

	// Same pool shape as service.SweepStream: workers range over a
	// dispatch channel, results land at their plan index, the emit loop
	// releases them in order.
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	next := make(chan int)
	var wg sync.WaitGroup
	for i := 0; i < plan.Workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range next {
				cells[idx] = c.runCell(cctx, req, plan.Cells[idx])
				close(done[idx])
			}
		}()
	}
	go func() {
		defer close(next)
		for idx := range plan.Cells {
			select {
			case next <- idx:
			case <-cctx.Done():
				return
			}
		}
	}()

	var emitErr error
	for i := 0; i < n && emitErr == nil; i++ {
		select {
		case <-done[i]:
			emitErr = emit(cells[i])
		case <-cctx.Done():
			emitErr = cctx.Err()
		}
	}
	cancel()
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if emitErr != nil {
		return nil, emitErr
	}

	sum := &service.SweepSummary{
		APIVersion:     service.APIVersion,
		Workloads:      plan.Workloads,
		Machines:       plan.Machines,
		Cells:          n,
		DistinctSeries: plan.DistinctSeries,
		DistinctFits:   plan.DistinctFits,
	}
	for _, cell := range cells {
		if cell.Error != "" {
			sum.Failures++
		}
	}
	return sum, nil
}

// Sweep is SweepStream buffered, mirroring service.Sweep.
func (c *Coordinator) Sweep(ctx context.Context, req service.SweepRequest) (*service.SweepResponse, error) {
	var cells []service.SweepCell
	sum, err := c.SweepStream(ctx, req, func(cell service.SweepCell) error {
		cells = append(cells, cell)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &service.SweepResponse{
		APIVersion: service.APIVersion,
		Workloads:  sum.Workloads,
		Machines:   sum.Machines,
		Cells:      cells,
		Failures:   sum.Failures,
	}, nil
}

// runCell executes one planned cell, coalesced by fit identity: two
// overlapping sweeps (even from different clients) asking for the same
// (series, options, targets) artifact share one worker request. Worker
// failures fail over along the ring and bottom out at the local service;
// only this sweep's own cancellation surfaces as an error cell (never
// emitted — the stream aborts first).
func (c *Coordinator) runCell(ctx context.Context, req service.SweepRequest, pc service.PlannedCell) service.SweepCell {
	cellReq := service.CellRequest{
		Workload:  pc.Workload,
		Machine:   pc.Machine,
		MeasCores: pc.MeasCores,
		Scale:     pc.Scale,
		Soft:      req.Soft,
		Bootstrap: req.Bootstrap,
		CILevel:   req.CILevel,
		Seed:      req.Seed,
	}
	cell, err := c.cellFlights.Do(ctx, pc.FitKey, func(fctx context.Context) (service.SweepCell, error) {
		return c.executeCell(fctx, cellReq, pc.RouteKey)
	})
	if err != nil {
		return service.SweepCell{Workload: pc.Workload, Machine: pc.Machine,
			MeasCores: pc.MeasCores, Error: err.Error()}
	}
	return cell
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
