package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/counters"
	"repro/internal/fit"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/workloads"
)

func TestTargetsSortsAndDeduplicates(t *testing.T) {
	got, err := Targets([]int{24, 24, 48, 1, 24, 1})
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{1, 24, 48}; !reflect.DeepEqual(got, want) {
		t.Errorf("Targets = %v, want %v", got, want)
	}
	if _, err := Targets(nil); err == nil {
		t.Error("no targets should error")
	}
	if _, err := Targets([]int{4, 0}); err == nil {
		t.Error("target 0 should error")
	}
}

// Duplicate target core counts must not produce duplicate prediction rows
// (regression: Predict used to sort but not dedupe).
func TestPredictDeduplicatesTargets(t *testing.T) {
	s := syntheticSeries(12)
	pred, err := Predict(s, []int{24, 48, 24, 48, 24}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{24, 48}; !reflect.DeepEqual(pred.TargetCores, want) {
		t.Errorf("TargetCores = %v, want %v", pred.TargetCores, want)
	}
	if len(pred.Time) != 2 || len(pred.StallsPerCore) != 2 {
		t.Errorf("prediction rows = %d/%d, want 2", len(pred.Time), len(pred.StallsPerCore))
	}
	single, err := Predict(s, []int{24, 48}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pred.Time, single.Time) {
		t.Errorf("deduped prediction %v differs from plain %v", pred.Time, single.Time)
	}
}

// Fit + Finish is the memoizable split the sweep planner relies on: the
// artifact must capture everything, so finishing it (twice) reproduces Run
// exactly — bootstrap bands included — without re-running any fit search.
func TestFitArtifactFinishMatchesRun(t *testing.T) {
	s := syntheticSeries(12)
	opt := Options{Bootstrap: 30, Seed: 7}
	pl := NewPipeline(opt)
	art, err := pl.Fit(context.Background(), s, []int{16, 24, 48})
	if err != nil {
		t.Fatal(err)
	}
	first, err := pl.Finish(context.Background(), art)
	if err != nil {
		t.Fatal(err)
	}
	again, err := pl.Finish(context.Background(), art)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := pl.Run(context.Background(), s, []int{16, 24, 48})
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]*Prediction{"finish": first, "re-finish": again} {
		if !reflect.DeepEqual(got.Time, direct.Time) {
			t.Errorf("%s Time %v differs from Run %v", name, got.Time, direct.Time)
		}
		if !reflect.DeepEqual(got.TimeLo, direct.TimeLo) || !reflect.DeepEqual(got.TimeHi, direct.TimeHi) {
			t.Errorf("%s bootstrap bands differ from Run", name)
		}
		if !reflect.DeepEqual(got.Stability, direct.Stability) {
			t.Errorf("%s stability scores differ from Run", name)
		}
	}
	if art.Series != s || len(art.Targets) != 3 || art.FactorFit == nil {
		t.Errorf("artifact not fully populated: %+v", art)
	}
}

// The staged pipeline must compose to exactly what Predict returns.
func TestPipelineStagesComposeToPredict(t *testing.T) {
	s := syntheticSeries(12)
	opt := Options{}
	pl := NewPipeline(opt)
	targets, err := Targets([]int{16, 24, 48})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := pl.Extrapolate(context.Background(), s, targets)
	if err != nil {
		t.Fatal(err)
	}
	spc := pl.Combine(ex)
	ffit, err := pl.SelectFactor(context.Background(), s, targets, spc)
	if err != nil {
		t.Fatal(err)
	}
	times, err := pl.Times(ffit, targets, spc)
	if err != nil {
		t.Fatal(err)
	}

	pred, err := Predict(s, []int{16, 24, 48}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(times, pred.Time) {
		t.Errorf("staged times %v != Predict times %v", times, pred.Time)
	}
	if !reflect.DeepEqual(spc, pred.StallsPerCore) {
		t.Errorf("staged stalls/core %v != Predict %v", spc, pred.StallsPerCore)
	}
	if ffit.String() != pred.FactorFit.String() {
		t.Errorf("staged factor %s != Predict %s", ffit, pred.FactorFit)
	}
	for name, f := range ex.Fits {
		if pf := pred.CategoryFits[name]; pf == nil || pf.String() != f.String() {
			t.Errorf("category %s: staged fit %s != Predict fit %v", name, f, pf)
		}
	}
}

// Parallel fitting must be bit-identical to the sequential order on the
// fig5 scenario (intruder measured on one Opteron processor): the worker
// count and the gate are throughput knobs, never result knobs. Every fitted
// bit is compared — each category fit and the factor fit, and the bootstrap
// bands and stability scores — under several worker counts and a gate of
// one slot.
func TestParallelFittingMatchesSerialOnFig5Scenario(t *testing.T) {
	m := machine.Opteron()
	w, err := workloads.Lookup("intruder")
	if err != nil {
		t.Fatal(err)
	}
	measured, err := sim.CollectSeries(w, m, sim.CoreRange(12), 1)
	if err != nil {
		t.Fatal(err)
	}
	var targets []int
	for c := 13; c <= 48; c++ {
		targets = append(targets, c)
	}
	predict := func(opt Options) *Prediction {
		t.Helper()
		opt.UseSoftware = true
		opt.Bootstrap = 20
		p, err := Predict(measured, targets, opt)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	serial := predict(Options{Workers: 1})
	for _, v := range []struct {
		name string
		opt  Options
	}{
		{"workers=2", Options{Workers: 2}},
		{"workers=3", Options{Workers: 3}},
		{"workers=8", Options{Workers: 8}},
		{"gate=1", Options{Gate: make(chan struct{}, 1)}},
	} {
		name, got := v.name, predict(v.opt)
		for _, c := range []struct {
			field      string
			want, have []float64
		}{
			{"Time", serial.Time, got.Time},
			{"StallsPerCore", serial.StallsPerCore, got.StallsPerCore},
			{"TimeLo", serial.TimeLo, got.TimeLo},
			{"TimeHi", serial.TimeHi, got.TimeHi},
		} {
			if !sameBits(c.want, c.have) {
				t.Errorf("%s: %s differs from serial:\n%v\n%v", name, c.field, c.want, c.have)
			}
		}
		if len(got.CategoryFits) != len(serial.CategoryFits) {
			t.Errorf("%s: %d category fits, serial has %d", name, len(got.CategoryFits), len(serial.CategoryFits))
		}
		for cat, f := range serial.CategoryFits {
			if err := sameFit(f, got.CategoryFits[cat]); err != "" {
				t.Errorf("%s: category %s: %s", name, cat, err)
			}
		}
		if err := sameFit(serial.FactorFit, got.FactorFit); err != "" {
			t.Errorf("%s: factor fit: %s", name, err)
		}
		if len(got.Stability) != len(serial.Stability) {
			t.Errorf("%s: %d stability scores, serial has %d", name, len(got.Stability), len(serial.Stability))
		}
		for cat, v := range serial.Stability {
			if h, ok := got.Stability[cat]; !ok || math.Float64bits(h) != math.Float64bits(v) {
				t.Errorf("%s: category %s stability %v, serial %v", name, cat, h, v)
			}
		}
		if math.Float64bits(got.FactorStability) != math.Float64bits(serial.FactorStability) {
			t.Errorf("%s: factor stability %v, serial %v", name, got.FactorStability, serial.FactorStability)
		}
	}
}

// sameBits reports whether a and b hold the same float64 bits.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// sameFit describes how got differs from want in kernel, prefix, scale,
// coefficients or checkpoint RMSE, bit for bit; "" when it does not.
func sameFit(want, got *fit.Fit) string {
	switch {
	case got == nil:
		return "missing"
	case got.Kernel != want.Kernel || got.PrefixLen != want.PrefixLen:
		return fmt.Sprintf("got %s, want %s", got, want)
	case !sameBits(got.Params, want.Params):
		return fmt.Sprintf("params %v, want %v", got.Params, want.Params)
	case math.Float64bits(got.YScale) != math.Float64bits(want.YScale):
		return fmt.Sprintf("YScale %v, want %v", got.YScale, want.YScale)
	case math.Float64bits(got.CheckpointRMSE) != math.Float64bits(want.CheckpointRMSE):
		return fmt.Sprintf("CheckpointRMSE %v, want %v", got.CheckpointRMSE, want.CheckpointRMSE)
	}
	return ""
}

func TestExtrapolateKeepsZeroCategories(t *testing.T) {
	s := syntheticSeries(12)
	for i := range s.Samples {
		s.Samples[i].HW["Z"] = 0
	}
	pl := NewPipeline(Options{})
	targets, _ := Targets([]int{24})
	ex, err := pl.Extrapolate(context.Background(), s, targets)
	if err != nil {
		t.Fatal(err)
	}
	if _, fitted := ex.Fits["Z"]; fitted {
		t.Error("all-zero category should not be fitted")
	}
	if vals := ex.Values["Z"]; len(vals) != 1 || vals[0] != 0 {
		t.Errorf("zero category values = %v", vals)
	}
	found := false
	for _, n := range ex.Names {
		if n == "Z" {
			found = true
		}
	}
	if !found {
		t.Error("zero category missing from Names")
	}
}

func TestBootstrapBandsContainPointEstimate(t *testing.T) {
	full := syntheticSeries(48)
	measured := &counters.Series{Workload: full.Workload, Machine: full.Machine,
		Samples: full.Samples[:12]}
	pred, err := Predict(measured, sim.CoreRange(48), Options{Bootstrap: 200, CILevel: 90})
	if err != nil {
		t.Fatal(err)
	}
	if len(pred.TimeLo) != len(pred.Time) || len(pred.TimeHi) != len(pred.Time) {
		t.Fatalf("band lengths lo=%d hi=%d want %d", len(pred.TimeLo), len(pred.TimeHi), len(pred.Time))
	}
	if pred.CILevel != 90 {
		t.Errorf("CILevel = %v, want 90", pred.CILevel)
	}
	if pred.Bootstraps < 100 {
		t.Errorf("only %d/200 realistic replicates", pred.Bootstraps)
	}
	for i := range pred.Time {
		if pred.TimeLo[i] > pred.Time[i] || pred.TimeHi[i] < pred.Time[i] {
			t.Errorf("band [%g, %g] at %v cores excludes estimate %g",
				pred.TimeLo[i], pred.TimeHi[i], pred.TargetCores[i], pred.Time[i])
		}
		if pred.TimeLo[i] < 0 || math.IsNaN(pred.TimeLo[i]) || math.IsInf(pred.TimeHi[i], 0) {
			t.Errorf("degenerate band [%g, %g]", pred.TimeLo[i], pred.TimeHi[i])
		}
	}
	for cat, s := range pred.Stability {
		if s <= 0 || s > 1 || math.IsNaN(s) {
			t.Errorf("category %s stability %v outside (0, 1]", cat, s)
		}
	}
	if pred.FactorStability <= 0 || pred.FactorStability > 1 {
		t.Errorf("factor stability %v outside (0, 1]", pred.FactorStability)
	}
}

// The bands are a deterministic function of (series, options): same seed,
// same bands; a different seed reshuffles the resamples.
func TestBootstrapIsDeterministicPerSeed(t *testing.T) {
	s := syntheticSeries(12)
	opt := Options{Bootstrap: 80, Workers: 4}
	a, err := Predict(s, []int{24, 48}, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Predict(s, []int{24, 48}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.TimeLo, b.TimeLo) || !reflect.DeepEqual(a.TimeHi, b.TimeHi) {
		t.Errorf("same seed, different bands: %v/%v vs %v/%v", a.TimeLo, a.TimeHi, b.TimeLo, b.TimeHi)
	}
	opt.Seed = 12345
	c, err := Predict(s, []int{24, 48}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.TimeLo, c.TimeLo) && reflect.DeepEqual(a.TimeHi, c.TimeHi) {
		t.Error("different seeds produced identical bands (suspicious)")
	}
}

// Options that earlier versions silently "fixed" must now be rejected at
// the pipeline boundary.
func TestOptionsValidateRejectsBadValues(t *testing.T) {
	bad := []Options{
		{Workers: -1},
		{Bootstrap: -5},
		{Checkpoints: -2},
		{CILevel: -10},
		{CILevel: 100},
		{CILevel: 250},
		{FreqRatio: -1},
		{DatasetScale: -0.5},
	}
	s := syntheticSeries(12)
	for _, opt := range bad {
		if err := opt.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", opt)
		}
		if _, err := Predict(s, []int{24}, opt); err == nil {
			t.Errorf("Predict with %+v should fail validation", opt)
		}
	}
	good := []Options{
		{}, // all defaults
		{Workers: 4, Bootstrap: 10, CILevel: 95, Checkpoints: 2},
		{FreqRatio: 1.5, DatasetScale: 2},
	}
	for _, opt := range good {
		if err := opt.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", opt, err)
		}
	}
}

// A cancelled context must abort Run promptly, even mid-bootstrap with a
// large replicate count still queued.
func TestRunAbortsOnContextCancel(t *testing.T) {
	s := syntheticSeries(12)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NewPipeline(Options{}).Run(ctx, s, []int{24, 48}); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled Run = %v, want context.Canceled", err)
	}

	// Cancel while the bootstrap stage is grinding through replicates: Run
	// must return context.Canceled well before the full replicate count
	// could have finished.
	ctx, cancel = context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := NewPipeline(Options{Bootstrap: 1 << 20, Workers: 2}).Run(ctx, s, []int{24, 48})
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let it reach the bootstrap fan-out
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled Run = %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Run did not abort after cancellation")
	}
}

// The factor search fans out over the worker pool like step B, so a
// cancelled context must stop it too.
func TestSelectFactorAbortsOnContextCancel(t *testing.T) {
	s := syntheticSeries(12)
	pl := NewPipeline(Options{})
	targets, err := Targets([]int{16, 24, 48})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := pl.Extrapolate(context.Background(), s, targets)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := pl.SelectFactor(ctx, s, targets, pl.Combine(ex)); !errors.Is(err, context.Canceled) {
		t.Errorf("SelectFactor with a cancelled context = %v, want context.Canceled", err)
	}
}

func TestPredictWithoutBootstrapHasNoBands(t *testing.T) {
	s := syntheticSeries(12)
	pred, err := Predict(s, []int{24}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if pred.TimeLo != nil || pred.TimeHi != nil || pred.Stability != nil {
		t.Error("bands/stability must be nil without Options.Bootstrap")
	}
	if pred.CILevel != 0 || pred.Bootstraps != 0 {
		t.Errorf("CILevel=%v Bootstraps=%d, want zero values", pred.CILevel, pred.Bootstraps)
	}
}
