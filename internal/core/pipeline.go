package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"repro/internal/counters"
	"repro/internal/fit"
)

// Pipeline is the staged form of the §3 prediction pipeline. Each stage is
// independently callable and testable:
//
//	Extrapolate  step B: fit every stall category and evaluate it over the
//	             targets, fanned out across a bounded worker pool;
//	Combine      sum the per-category extrapolations into total stalled
//	             cycles per core;
//	SelectFactor step C: fit the stalls-to-time scaling factor by
//	             correlation;
//	Times        apply the factor (and cross-machine frequency ratio) to
//	             produce the execution-time predictions.
//
// Run composes the stages — plus the optional residual-bootstrap stage that
// turns point estimates into confidence bands — and Predict is a thin
// wrapper over Run.
type Pipeline struct {
	opt Options
}

// NewPipeline captures the options shared by all stages.
func NewPipeline(opt Options) *Pipeline {
	return &Pipeline{opt: opt}
}

// workers bounds the stage fan-out: Options.Workers (default
// GOMAXPROCS), never more than the number of independent work items.
func (pl *Pipeline) workers(items int) int {
	w := pl.opt.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > items {
		w = items
	}
	if w < 1 {
		w = 1
	}
	return w
}

// runIndexed fans fn(i) for i in [0, n) across the pipeline's worker pool
// and waits for all of them. fn writes results by index, so completion
// order never affects the outcome. Cancelling ctx stops dispatching new
// items, drains the workers, and returns ctx.Err(); items already handed to
// a worker finish (each is one fit or one bootstrap replicate, bounded
// work), so the pool never leaks goroutines. fn must not call runIndexed:
// a nested pool would hold a Gate slot while waiting for more, which
// deadlocks once the gate is full.
func (pl *Pipeline) runIndexed(ctx context.Context, n int, fn func(i int)) error {
	next := make(chan int)
	gate := pl.opt.Gate
	var wg sync.WaitGroup
	for w := 0; w < pl.workers(n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if ctx.Err() != nil {
					continue // drain without doing the work
				}
				if gate != nil {
					select {
					case gate <- struct{}{}:
					case <-ctx.Done():
						continue
					}
				}
				fn(i)
				if gate != nil {
					<-gate
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		select {
		case next <- i:
		case <-ctx.Done():
			i = n // stop dispatching
		}
	}
	close(next)
	wg.Wait()
	return ctx.Err()
}

// fitOptions is the fit configuration shared by the extrapolation and
// factor stages; MaxX tracks the largest requested target.
func (pl *Pipeline) fitOptions(targets []float64) fit.Options {
	return fit.Options{
		Checkpoints: pl.opt.Checkpoints,
		MaxX:        targets[len(targets)-1],
		Kernels:     pl.opt.Kernels,
		// Between the measurement window and a 4x larger machine, stall
		// categories realistically grow by at most ~an order of magnitude;
		// 20x headroom keeps runaway rationals out without constraining
		// real trends. The tail-slope cap additionally ties the allowed
		// growth to the trend visible at the end of the window.
		MaxGrowth:    20,
		TailSlopeCap: 4,
	}
}

// dataScale returns the effective weak-scaling dataset factor.
func (pl *Pipeline) dataScale() float64 {
	if pl.opt.DatasetScale > 0 {
		return pl.opt.DatasetScale
	}
	return 1
}

// freqRatio returns the effective cross-machine frequency ratio.
func (pl *Pipeline) freqRatio() float64 {
	if pl.opt.FreqRatio > 0 {
		return pl.opt.FreqRatio
	}
	return 1
}

// Targets normalizes raw target core counts into the stage x-axis:
// validated, sorted ascending, duplicates removed.
func Targets(targetCores []int) ([]float64, error) {
	if len(targetCores) == 0 {
		return nil, errors.New("core: no target core counts")
	}
	seen := make(map[int]bool, len(targetCores))
	targets := make([]float64, 0, len(targetCores))
	for _, c := range targetCores {
		if c < 1 {
			return nil, fmt.Errorf("core: bad target core count %d", c)
		}
		if seen[c] {
			continue
		}
		seen[c] = true
		targets = append(targets, float64(c))
	}
	sort.Float64s(targets)
	return targets, nil
}

// category is one stall series to extrapolate.
type category struct {
	name string
	ys   []float64
}

// categories lists the stall series the options select, sorted by name so
// every stage iterates (and sums) in a stable order.
func categories(series *counters.Series, opt Options) []category {
	var cats []category
	for _, code := range series.EventCodes() {
		cats = append(cats, category{code, series.Event(code)})
	}
	if opt.IncludeFrontend {
		seen := map[string]bool{}
		for i := range series.Samples {
			for code := range series.Samples[i].Frontend {
				if !seen[code] {
					seen[code] = true
					cats = append(cats, category{code, series.FrontendEvent(code)})
				}
			}
		}
	}
	if opt.UseSoftware {
		for _, name := range series.SoftNames() {
			cats = append(cats, category{name, series.SoftCategory(name)})
		}
	}
	sort.Slice(cats, func(i, j int) bool { return cats[i].name < cats[j].name })
	return cats
}

// Extrapolation is step B's output: every stall category extrapolated
// individually over the target core counts.
type Extrapolation struct {
	// Targets are the normalized target core counts (see Targets).
	Targets []float64
	// Names are the category names in stable (sorted) order; all-zero
	// categories appear here with zero values and no fit.
	Names []string
	// Fits maps category to its selected extrapolation function.
	Fits map[string]*fit.Fit
	// Values maps category to its extrapolated values over Targets
	// (dataset-scaled, clamped non-negative).
	Values map[string][]float64

	// measured keeps the per-category measurement series for the
	// bootstrap stage (residuals are computed against these).
	measured []category
}

// Extrapolate runs step B on a measured series. Per-category fitting — one
// kernel × prefix candidate search per category, the dominant cost of a
// prediction — is one fan-out: every candidate fit of every non-zero
// category is a task on the pipeline's worker pool, so no worker idles
// while one category's slowest kernels finish. Each task writes its own
// slot and each category then picks its best candidate in order, so the
// result is identical to the sequential order regardless of worker count.
// Cancelling ctx aborts the fan-out and returns ctx.Err().
func (pl *Pipeline) Extrapolate(ctx context.Context, series *counters.Series, targets []float64) (*Extrapolation, error) {
	if err := pl.opt.Validate(); err != nil {
		return nil, err
	}
	if len(series.Samples) < 2 {
		return nil, ErrTooFewSamples
	}
	if len(targets) == 0 {
		return nil, errors.New("core: no target core counts")
	}
	xs := series.Cores()
	fopt := pl.fitOptions(targets)
	scale := pl.dataScale()
	cats := categories(series, pl.opt)

	ex := &Extrapolation{
		Targets:  targets,
		Fits:     map[string]*fit.Fit{},
		Values:   map[string][]float64{},
		measured: cats,
	}
	// searches[c] is nil for an all-zero category, which gets no fit.
	searches := make([]*fit.Search, len(cats))
	type task struct {
		s *fit.Search
		i int
	}
	var tasks []task
	for c, cat := range cats {
		if allNearZero(cat.ys) {
			continue
		}
		s, err := fit.NewSearch(xs, cat.ys, fopt)
		if err != nil {
			return nil, fmt.Errorf("core: extrapolating %s for %s: %w", cat.name, series.Workload, err)
		}
		searches[c] = s
		for i := 0; i < s.Len(); i++ {
			tasks = append(tasks, task{s, i})
		}
	}
	if err := pl.runIndexed(ctx, len(tasks), func(t int) {
		tasks[t].s.Run(tasks[t].i)
	}); err != nil {
		return nil, err
	}

	for c, cat := range cats {
		vals := make([]float64, len(targets))
		if s := searches[c]; s != nil {
			f, err := bestOrLinear(s, xs, cat.ys, fopt)
			if err != nil {
				return nil, fmt.Errorf("core: extrapolating %s for %s: %w", cat.name, series.Workload, err)
			}
			ex.Fits[cat.name] = f
			vals = evalClamped(f, targets, scale)
		}
		ex.Names = append(ex.Names, cat.name)
		ex.Values[cat.name] = vals
	}
	return ex, nil
}

// evalClamped evaluates a fit over the targets, applying the weak-scaling
// dataset factor and clamping negatives to zero (stall counts are counts).
func evalClamped(f *fit.Fit, targets []float64, scale float64) []float64 {
	vals := make([]float64, len(targets))
	for i, x := range targets {
		v := f.Eval(x) * scale
		if v < 0 {
			v = 0
		}
		vals[i] = v
	}
	return vals
}

// Combine sums the per-category extrapolations into total stalled cycles
// per core at each target. Summation follows the stable Names order, so
// the result never depends on map iteration order.
func (pl *Pipeline) Combine(ex *Extrapolation) []float64 {
	spc := make([]float64, len(ex.Targets))
	for i, x := range ex.Targets {
		total := 0.0
		for _, name := range ex.Names {
			total += ex.Values[name][i]
		}
		spc[i] = total / x
	}
	return spc
}

// SelectFactor runs step C: the scaling factor connecting stalls per core
// to time. The factor is computed from the measurements, extrapolated with
// the same kernels, and selected for maximum correlation of the produced
// time predictions with the extrapolated stalls per core (§3.1.3). Its
// candidate fits fan out over the pipeline's worker pool; cancelling ctx
// aborts them and returns ctx.Err().
func (pl *Pipeline) SelectFactor(ctx context.Context, series *counters.Series, targets, stallsPerCore []float64) (*fit.Fit, error) {
	xs := series.Cores()
	times := series.Times()
	factor, err := measuredFactor(series, pl.opt)
	if err != nil {
		return nil, err
	}
	factorOpt := pl.fitOptions(targets)
	// Sanity bounds on the produced time predictions: relative to the
	// highest-core measurement, adding cores cannot plausibly slow the
	// application by more than ~4x or speed it up by more than ~10x.
	lastTime := times[len(times)-1]
	factorOpt.LoBound = lastTime / 10
	factorOpt.HiBound = lastTime * 4
	s, err := fit.NewSearch(xs, factor, factorOpt)
	if err != nil {
		return nil, fmt.Errorf("core: fitting scaling factor for %s: %w", series.Workload, err)
	}
	if err := pl.runIndexed(ctx, s.Len(), s.Run); err != nil {
		return nil, err
	}
	cands, err := s.Candidates()
	var ffit *fit.Fit
	if err == nil {
		ffit, err = fit.BestByCorrelation(cands, targets, stallsPerCore, factorOpt)
	}
	if err != nil {
		return nil, fmt.Errorf("core: fitting scaling factor for %s: %w", series.Workload, err)
	}
	return ffit, nil
}

// measuredFactor returns the measured time-per-stall-per-core series the
// factor stage fits.
func measuredFactor(series *counters.Series, opt Options) ([]float64, error) {
	xs := series.Cores()
	times := series.Times()
	measuredSPC := series.StallsPerCore(opt.UseSoftware, opt.IncludeFrontend)
	factor := make([]float64, len(xs))
	for i := range xs {
		if measuredSPC[i] <= 0 {
			return nil, fmt.Errorf("core: zero measured stalls per core at %v cores", xs[i])
		}
		factor[i] = times[i] / measuredSPC[i]
	}
	return factor, nil
}

// Times applies the selected factor and the cross-machine frequency ratio
// to the combined stalls per core, producing execution-time predictions.
func (pl *Pipeline) Times(ffit *fit.Fit, targets, stallsPerCore []float64) ([]float64, error) {
	freq := pl.freqRatio()
	out := make([]float64, len(targets))
	for i, x := range targets {
		t := ffit.Eval(x) * stallsPerCore[i] * freq
		if !finiteNonNegative(t) {
			return nil, fmt.Errorf("core: unrealistic time prediction %v at %v cores", t, x)
		}
		out[i] = t
	}
	return out, nil
}

// FitArtifact is the fitted-model half of a prediction: everything the
// expensive stages produce — the per-category extrapolation fits of step B,
// their combined stalls per core, and step C's selected scaling-factor fit —
// bound to the series and normalized targets they were fitted on. The
// artifact is the unit the sweep planner memoizes: Finish turns it into a
// Prediction without re-running any fit search, so repeated sweeps over the
// same (series, options, targets) input pay the fitting cost once.
// A FitArtifact is immutable after Fit returns and safe to share.
type FitArtifact struct {
	// Series is the measured input the fits were selected on.
	Series *counters.Series
	// Targets are the normalized target core counts (see Targets).
	Targets []float64
	// Extrapolation is step B's output over Targets.
	Extrapolation *Extrapolation
	// StallsPerCore is Combine's total over Targets.
	StallsPerCore []float64
	// FactorFit is the scaling-factor function selected by correlation.
	FactorFit *fit.Fit
}

// Fit runs the expensive fitting stages — Extrapolate, Combine and
// SelectFactor — and returns their result as a reusable artifact. Cancelling
// ctx aborts the fitting worker pool and returns ctx.Err().
func (pl *Pipeline) Fit(ctx context.Context, series *counters.Series, targetCores []int) (*FitArtifact, error) {
	if err := pl.opt.Validate(); err != nil {
		return nil, err
	}
	if len(series.Samples) < 2 {
		return nil, ErrTooFewSamples
	}
	targets, err := Targets(targetCores)
	if err != nil {
		return nil, err
	}
	ex, err := pl.Extrapolate(ctx, series, targets)
	if err != nil {
		return nil, err
	}
	spc := pl.Combine(ex)
	ffit, err := pl.SelectFactor(ctx, series, targets, spc)
	if err != nil {
		return nil, err
	}
	return &FitArtifact{
		Series:        series,
		Targets:       targets,
		Extrapolation: ex,
		StallsPerCore: spc,
		FactorFit:     ffit,
	}, nil
}

// Finish applies a fitted artifact: the factor and frequency ratio produce
// the time predictions, and, when Options.Bootstrap is set, the
// residual-bootstrap stage fills TimeLo/TimeHi and the stability scores.
// The artifact is not modified; Finish may be called repeatedly.
func (pl *Pipeline) Finish(ctx context.Context, art *FitArtifact) (*Prediction, error) {
	times, err := pl.Times(art.FactorFit, art.Targets, art.StallsPerCore)
	if err != nil {
		return nil, err
	}
	p := &Prediction{
		Workload:       art.Series.Workload,
		MeasuredOn:     art.Series.Machine,
		MeasuredCores:  art.Series.Cores(),
		TargetCores:    art.Targets,
		CategoryFits:   art.Extrapolation.Fits,
		CategoryValues: art.Extrapolation.Values,
		StallsPerCore:  art.StallsPerCore,
		FactorFit:      art.FactorFit,
		Time:           times,
	}
	if pl.opt.Bootstrap > 0 {
		if err := pl.bootstrap(ctx, art.Series, art.Extrapolation, p); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// Run composes the stages into a full prediction: Fit (extrapolate, combine,
// select the factor) then Finish (apply the factor; bootstrap when
// configured). Cancelling ctx stops the fitting and bootstrap worker pools
// promptly and returns ctx.Err().
func (pl *Pipeline) Run(ctx context.Context, series *counters.Series, targetCores []int) (*Prediction, error) {
	art, err := pl.Fit(ctx, series, targetCores)
	if err != nil {
		return nil, err
	}
	return pl.Finish(ctx, art)
}
