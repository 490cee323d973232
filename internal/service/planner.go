// Sweep planner: the layer between the Service facade and core.Pipeline
// that turns a SweepRequest into a deduplicated DAG of
// (collect → fit → predict) steps.
//
// Decomposition: every matrix cell becomes one planCell carrying its
// series key (the collect step) and its artifact key (the fit+predict
// step). Cells sharing a series key share one collection (the in-process
// series memo is a singleflight), and cells sharing an artifact key share
// one fit: the fitted-model memo below collapses concurrent duplicates and
// retains finished artifacts in a bounded LRU, so a warm sweep performs
// zero new fits per already-seen (workload, machine, options, targets)
// input. Evicted artifacts are cheap to restore: their measurement series
// persists in the store, and refitting costs far less than re-measuring.
package service

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/pool"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/workloads"
)

// expandGrid parses one sweep entry as a spec and expands its value grid
// into instance spec strings (a plain name or single-valued spec expands to
// itself). Oversized grids and parse failures are the caller's fault.
func expandGrid(entry string) ([]string, error) {
	sp, err := spec.Parse(entry)
	if err != nil {
		return nil, &BadRequestError{Err: err}
	}
	insts, err := sp.Instances()
	if err != nil {
		return nil, &BadRequestError{Err: err}
	}
	out := make([]string, len(insts))
	for i, inst := range insts {
		out[i] = inst.String()
	}
	return out, nil
}

// maxSweepCells bounds one sweep's workload × machine matrix. Grids make
// huge matrices cheap to *request* (spec.MaxGridInstances bounds each
// entry, but entries multiply), so the aggregate is capped before any cell
// is materialized.
const maxSweepCells = 16384

// fitted is one fitted-model memo entry: the prediction, and whether its
// measurement series was replayed (store or memo) rather than simulated —
// the value every requester reports, so repeated requests answer
// identically.
type fitted struct {
	pred      *core.Prediction
	seriesHit bool
}

// optionsFingerprint is the canonical form of every core.Options field that
// can change a prediction. Workers and Gate are deliberately absent: they
// are throughput knobs, never result knobs (results are worker-count
// independent by construction). Zero values that the pipeline documents as
// "use the default" are normalized to that default, so requests spelling
// the default explicitly share artifacts with requests omitting it.
// Options carrying a custom kernel library have no canonical form; callers
// must bypass the memo for them (see predicted).
func optionsFingerprint(opt core.Options) string {
	freq := opt.FreqRatio
	if freq <= 0 {
		freq = 1
	}
	ds := opt.DatasetScale
	if ds <= 0 {
		ds = 1
	}
	ci, seed := 0.0, int64(0)
	if opt.Bootstrap > 0 {
		ci = opt.CILevel
		if ci <= 0 || ci >= 100 {
			ci = core.DefaultCILevel
		}
		seed = opt.Seed
		if seed == 0 {
			seed = 1
		}
	}
	return fmt.Sprintf("soft=%t,fe=%t,chk=%d,freq=%g,ds=%g,boot=%d,ci=%g,seed=%d",
		opt.UseSoftware, opt.IncludeFrontend, opt.Checkpoints, freq, ds,
		opt.Bootstrap, ci, seed)
}

// artifactKey identifies one fitted-model artifact: the measurement
// series' content address (the store key hash) plus the options
// fingerprint and the prediction targets.
func artifactKey(sk store.Key, targets []int, opt core.Options) string {
	var b strings.Builder
	b.WriteString(sk.Hash())
	b.WriteString("|")
	b.WriteString(optionsFingerprint(opt))
	b.WriteString("|t=")
	for i, t := range targets {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(t))
	}
	return b.String()
}

// FitCacheStats reports the planner's lifetime counters: how many fit
// computations actually ran and how many requests were answered from the
// fitted-model memo (completed entries and collapsed in-flight duplicates
// alike). Benchmarks and tests read the deltas around a sweep.
func (s *Service) FitCacheStats() (computed, memoHits int64) {
	return s.fits.Stats()
}

// Predicted is the planner's in-process entry point, shared by Predict,
// every sweep cell and the experiment harness: measure (or replay) the
// contiguous 1..measCores window of workload w on m at scale, then fit and
// predict targets under opt — memoized in the fitted-model LRU, so repeated
// requests for the same input skip both collection and fitting. hit reports
// whether the measurement series was replayed rather than simulated.
// Options carrying a custom kernel library bypass the memo (kernels have no
// canonical fingerprint) but still share the measurement layer.
func (s *Service) Predicted(ctx context.Context, w sim.Workload, m *machine.Config, measCores int, scale float64, targets []int, opt core.Options) (*core.Prediction, bool, error) {
	return s.predicted(ctx, w, m, measCores, scale, targets, opt)
}

func (s *Service) predicted(ctx context.Context, w sim.Workload, m *machine.Config, measCores int, scale float64, targets []int, opt core.Options) (*core.Prediction, bool, error) {
	opt.Gate = s.sem
	if opt.Kernels != nil {
		// Uncacheable options still share the measurement layer and the
		// service CPU gate.
		ser, hit, err := s.series(ctx, w, m, measCores, scale)
		if err != nil {
			return nil, hit, err
		}
		pred, err := core.PredictContext(ctx, ser, targets, opt)
		return pred, hit, err
	}
	key := artifactKey(seriesKey(w.Name(), m.Name, measCores, scale), targets, opt)
	res, err := s.fits.Do(ctx, key, func(ctx context.Context) (fitted, error) {
		if s.fitHook != nil {
			s.fitHook(key)
		}
		ser, hit, err := s.series(ctx, w, m, measCores, scale)
		if err != nil {
			return fitted{seriesHit: hit}, err
		}
		pl := core.NewPipeline(opt)
		art, err := pl.Fit(ctx, ser, targets)
		if err != nil {
			return fitted{seriesHit: hit}, err
		}
		pred, err := pl.Finish(ctx, art)
		return fitted{pred, hit}, err
	})
	return res.pred, res.seriesHit, err
}

// CellJob is one planned cell, fully resolved: the exact CellRequest to
// execute (canonical names, MeasCores and Scale never zero) plus the
// routing and dedup identities the cluster coordinator fans out by. Jobs
// are built in one place — planSweep — so every tier executes
// byte-identical requests by construction.
type CellJob struct {
	// Index is the cell's position in plan (= response) order.
	Index int
	Req   CellRequest
	// RouteKey shards the cell onto a worker; FitKey identifies its
	// fit+predict step, so cells sharing one (overlapping grids, possibly
	// from different clients) can share one execution.
	RouteKey string
	FitKey   string
}

// CellRunner executes one planned cell. Execution failures belong in the
// returned cell's Error, exactly as Cell records them; an error return
// (cancellation, an executor that cannot answer) becomes the cell's Error
// through planCell.errorCell. The service's own runner is Cell, the path
// /v1/cell serves; the cluster coordinator substitutes its fleet fan-out.
type CellRunner func(ctx context.Context, job CellJob) (SweepCell, error)

// planCell is one cell of a decomposed sweep: its job, plus the target core
// count an error cell reports.
type planCell struct {
	CellJob
	targetCores int
}

// errorCell is the cell a runner error leaves behind: the planned
// coordinates and the error, nothing measured.
func (pc planCell) errorCell(err error) SweepCell {
	return SweepCell{
		Workload:    pc.Req.Workload,
		Machine:     pc.Req.Machine,
		MeasCores:   pc.Req.MeasCores,
		TargetCores: pc.targetCores,
		Error:       err.Error(),
	}
}

// sweepPlan is a SweepRequest decomposed into deduplicated steps.
type sweepPlan struct {
	workloads    []string
	machineNames []string
	cells        []planCell
	workers      int
	// distinctSeries / distinctFits count the deduplicated collect and fit
	// steps: cells beyond these counts ride along on a shared step.
	distinctSeries int
	distinctFits   int
}

// cellOptions validates a cell's bootstrap options and returns the
// core.Options every sweep, explore and /v1/cell cell is predicted with.
// Workers is 1: parallelism lives at the cell level; letting every
// concurrent cell open its own GOMAXPROCS-wide fitting pool would
// oversubscribe the machine by workers × GOMAXPROCS. The service gate
// additionally bounds total fitting work across in-flight requests.
func cellOptions(soft bool, bootstrap int, ciLevel float64, seed int64) (core.Options, error) {
	if bootstrap < 0 {
		return core.Options{}, badRequest("negative bootstrap count %d", bootstrap)
	}
	if ciLevel != 0 && (ciLevel <= 0 || ciLevel >= 100) {
		return core.Options{}, badRequest("confidence level %g%% outside (0, 100)", ciLevel)
	}
	return core.Options{
		UseSoftware: soft,
		Bootstrap:   bootstrap,
		CILevel:     ciLevel,
		Seed:        seed,
		Workers:     1,
	}, nil
}

// planSweep validates a SweepRequest and decomposes it into the cell DAG.
// Validation order (version, bootstrap options, workloads, machines) is part
// of the API surface: it decides which error a doubly bad request reports.
func (s *Service) planSweep(req SweepRequest) (*sweepPlan, error) {
	if err := checkVersion(req.APIVersion); err != nil {
		return nil, err
	}
	opt, err := cellOptions(req.Soft, req.Bootstrap, req.CILevel, req.Seed)
	if err != nil {
		return nil, err
	}
	// Sweeps accept value grids: each requested workload or machine entry
	// is a spec whose repeated keys expand into one instance per
	// combination (`memcached?skew=1.5,skew=3` is two scenarios), and
	// every instance carries its canonical spec string — the name all cache
	// keys, seeds and cells agree on.
	wlSpecs := req.Workloads
	if len(wlSpecs) == 0 {
		wlSpecs = workloads.Table4Names()
	}
	var wls []string
	for _, entry := range wlSpecs {
		insts, err := expandGrid(entry)
		if err != nil {
			return nil, err
		}
		// One entry is one scenario set: instances that canonicalize
		// identically (`skew=2,skew=2.0`) collapse to one cell. Distinct
		// list entries stay distinct, as they always have.
		seen := map[string]bool{}
		for _, n := range insts {
			w, err := workloads.Lookup(n)
			if err != nil {
				return nil, &BadRequestError{Err: err}
			}
			if seen[w.Name()] {
				continue
			}
			seen[w.Name()] = true
			wls = append(wls, w.Name())
			// More workloads than the total cell cap can never form a
			// valid matrix (there is at least one machine); stop expanding
			// before a long entry list amasses unbounded instances.
			if len(wls) > maxSweepCells {
				return nil, badRequest("sweep expands to more than %d workloads", maxSweepCells)
			}
		}
	}
	machs := machine.Presets()
	if len(req.Machines) > 0 {
		machs = nil
		for _, entry := range req.Machines {
			insts, err := expandGrid(entry)
			if err != nil {
				return nil, err
			}
			seen := map[string]bool{}
			for _, n := range insts {
				m, err := machine.Lookup(n)
				if err != nil {
					return nil, &BadRequestError{Err: err}
				}
				if seen[m.Name] {
					continue
				}
				seen[m.Name] = true
				machs = append(machs, m)
				if len(machs) > maxSweepCells {
					return nil, badRequest("sweep expands to more than %d machines", maxSweepCells)
				}
			}
		}
	}
	scale := defaultScale(req.Scale)

	// Bound the matrix BEFORE materializing a single cell: the per-spec
	// grid cap (spec.MaxGridInstances) bounds each entry, but the
	// workload × machine cross product — multiplied across list entries —
	// would otherwise let a hundred-byte request allocate millions of
	// cells. The ceiling is generous for real studies (the paper's full
	// matrix is 23×4) while keeping a hostile sweep from ballooning server
	// memory during planning.
	if len(wls)*len(machs) > maxSweepCells {
		return nil, badRequest("sweep expands to %d cells (%d workloads x %d machines), more than the %d-cell limit",
			len(wls)*len(machs), len(wls), len(machs), maxSweepCells)
	}

	plan := &sweepPlan{workloads: wls}
	// One targets slice per machine, shared by that machine's whole column.
	machTargets := make([][]int, len(machs))
	for mi, m := range machs {
		plan.machineNames = append(plan.machineNames, m.Name)
		machTargets[mi] = sim.CoreRange(m.NumCores())
	}
	seriesSeen := map[store.Key]bool{}
	fitSeen := map[string]bool{}
	for _, wl := range wls {
		for mi, m := range machs {
			measCores := req.MeasCores
			if measCores <= 0 {
				measCores = m.OneProcessorCores()
			}
			seriesID := seriesKey(wl, m.Name, measCores, scale)
			fitID := artifactKey(seriesID, machTargets[mi], opt)
			if !seriesSeen[seriesID] {
				seriesSeen[seriesID] = true
				plan.distinctSeries++
			}
			if !fitSeen[fitID] {
				fitSeen[fitID] = true
				plan.distinctFits++
			}
			plan.cells = append(plan.cells, planCell{
				CellJob: CellJob{
					Index: len(plan.cells),
					Req: CellRequest{
						Workload:  wl,
						Machine:   m.Name,
						MeasCores: measCores,
						Scale:     scale,
						Soft:      req.Soft,
						Bootstrap: req.Bootstrap,
						CILevel:   req.CILevel,
						Seed:      req.Seed,
					},
					RouteKey: RouteKey(wl, m.Name),
					FitKey:   fitID,
				},
				targetCores: m.NumCores(),
			})
		}
	}
	// The client may narrow the cell pool, never widen it past the
	// service's own width: a request body must not decide how many cells
	// (and, under the coordinator, worker relays) run at once.
	plan.workers = s.cfg.Workers
	if req.Workers > 0 && req.Workers < plan.workers {
		plan.workers = req.Workers
	}
	return plan, nil
}

// RouteKey is the shard identity of a scenario: the canonical workload and
// machine names, NUL-joined (both are spec-canonical, so neither contains a
// NUL). Deliberately coarser than the full series/artifact key: every
// schedule, scale and option variant of one scenario routes to the same
// worker, so that worker's store can prefix-window 1..K requests from any
// cached 1..N series and its fit memo sees every option variant of the
// series it owns.
//
//estima:canonical workload machine
func RouteKey(workload, machine string) string {
	return workload + "\x00" + machine
}

// Cell answers a CellRequest: exactly one sweep cell, predicted through the
// same fitted-model memo as every other entry point. It is also the
// service's own CellRunner, so the cell a single-process sweep emits and
// the one a worker answers /v1/cell with are the same code. Its option
// checks are planSweep's (cellOptions); execution failures are recorded in
// the cell, not returned: one pathological pair must not sink the matrix.
func (s *Service) Cell(ctx context.Context, req CellRequest) (*CellResponse, error) {
	if err := checkVersion(req.APIVersion); err != nil {
		return nil, err
	}
	opt, err := cellOptions(req.Soft, req.Bootstrap, req.CILevel, req.Seed)
	if err != nil {
		return nil, err
	}
	w, m, err := resolve(req.Workload, req.Machine)
	if err != nil {
		return nil, err
	}
	cell := SweepCell{
		Workload:    w.Name(),
		Machine:     m.Name,
		MeasCores:   req.MeasCores,
		TargetCores: m.NumCores(),
	}
	if cell.MeasCores <= 0 {
		cell.MeasCores = m.OneProcessorCores()
	}
	pred, hit, err := s.predicted(ctx, w, m, cell.MeasCores, defaultScale(req.Scale), sim.CoreRange(m.NumCores()), opt)
	cell.CacheHit = hit
	if err != nil {
		cell.Error = err.Error()
	} else {
		cell.Stop = pred.ScalingStop()
		cell.TimeFull = pred.Time[len(pred.Time)-1]
		if pred.TimeLo != nil {
			cell.TimeLo = pred.TimeLo[len(pred.TimeLo)-1]
			cell.TimeHi = pred.TimeHi[len(pred.TimeHi)-1]
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return &CellResponse{APIVersion: APIVersion, Cell: cell}, nil
}

// runCell is the service's own CellRunner: Cell.
func (s *Service) runCell(ctx context.Context, job CellJob) (SweepCell, error) {
	resp, err := s.Cell(ctx, job.Req)
	if err != nil {
		return SweepCell{}, err
	}
	return resp.Cell, nil
}

// runCells executes cells through run across a pool of workers and calls
// emit, on the caller's goroutine, with each finished cell strictly in
// slice order: a cell is emitted only after every earlier one, so the
// output is deterministic for any completion order. A runner error becomes
// the cell's Error. An emit error stops dispatch and is returned;
// cancelling ctx stops emission and returns ctx.Err().
func runCells(ctx context.Context, cells []planCell, workers int, run CellRunner, emit func(SweepCell) error) error {
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	out := make([]SweepCell, len(cells))
	done := make([]chan struct{}, len(cells))
	for i := range done {
		done[i] = make(chan struct{})
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		// The pool's own error is cctx's; the emit loop reports it.
		pool.Run(cctx, len(cells), workers, nil, func(_, i int) {
			c, err := run(cctx, cells[i].CellJob)
			if err != nil {
				c = cells[i].errorCell(err)
			}
			out[i] = c
			close(done[i])
		})
	}()
	var emitErr error
	for i := 0; i < len(cells) && emitErr == nil; i++ {
		select {
		case <-done[i]:
			if emitErr = cctx.Err(); emitErr == nil {
				emitErr = emit(out[i])
			}
		case <-cctx.Done():
			emitErr = cctx.Err()
		}
	}
	cancel()
	<-drained
	if err := ctx.Err(); err != nil {
		return err
	}
	return emitErr
}

// SweepStream answers a SweepRequest incrementally: emit is called once per
// finished cell, strictly in plan order (workload-major, machine-minor) —
// cells execute across the worker pool, but a cell is only emitted after
// every earlier cell, so the stream is byte-deterministic — and the summary
// of the whole matrix is returned at the end. An emit error aborts the
// sweep and is returned. Sweep is this method buffered; the HTTP layer
// streams it as NDJSON and the CLI as `-format ndjson`.
func (s *Service) SweepStream(ctx context.Context, req SweepRequest, emit func(SweepCell) error) (*SweepSummary, error) {
	return s.SweepStreamWith(ctx, req, s.runCell, emit)
}

// SweepStreamWith is SweepStream with a pluggable CellRunner — the seam the
// cluster coordinator uses to keep planning, ordering and the summary in
// exactly one place while substituting its fleet fan-out for cell
// execution.
func (s *Service) SweepStreamWith(ctx context.Context, req SweepRequest, run CellRunner, emit func(SweepCell) error) (*SweepSummary, error) {
	plan, err := s.planSweep(req)
	if err != nil {
		return nil, err
	}
	sum := &SweepSummary{
		APIVersion:     APIVersion,
		Workloads:      plan.workloads,
		Machines:       plan.machineNames,
		Cells:          len(plan.cells),
		DistinctSeries: plan.distinctSeries,
		DistinctFits:   plan.distinctFits,
	}
	if err := runCells(ctx, plan.cells, plan.workers, run, func(c SweepCell) error {
		if c.Error != "" {
			sum.Failures++
		}
		return emit(c)
	}); err != nil {
		return nil, err
	}
	return sum, nil
}
