package service

import (
	"context"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/flight"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/workloads"
)

// countingCollector wraps sim.Collect and counts simulator invocations.
func countingCollector(calls *atomic.Int64) func(sim.Workload, *machine.Config, int, float64) (counters.Sample, error) {
	return func(w sim.Workload, m *machine.Config, cores int, scale float64) (counters.Sample, error) {
		calls.Add(1)
		return sim.Collect(w, m, cores, scale)
	}
}

// TestWarmSweepDoesNoNewFitsOrCollections is the planner's acceptance test:
// across a cold sweep and a warm re-sweep of the same W×M matrix — with a
// duplicate workload thrown in — exactly one collection and one fit run per
// distinct (workload, machine, options) input.
func TestWarmSweepDoesNoNewFitsOrCollections(t *testing.T) {
	var sims atomic.Int64
	svc := newTestService(t, Config{CollectSample: countingCollector(&sims)})
	var fits atomic.Int64
	svc.fitHook = func(string) { fits.Add(1) }

	// 2 workloads × 2 machines, with intruder listed twice: 6 cells, 4
	// distinct inputs.
	req := SweepRequest{
		Workloads: []string{"intruder", "genome", "intruder"},
		Machines:  []string{"Haswell", "Xeon20"},
		Scale:     0.05,
	}
	cold, err := svc.Sweep(bg, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(cold.Cells) != 6 || cold.Failures != 0 {
		t.Fatalf("cold sweep: %d cells, %d failures", len(cold.Cells), cold.Failures)
	}
	if got := fits.Load(); got != 4 {
		t.Errorf("cold sweep ran %d fits, want one per distinct input (4)", got)
	}
	wantSims := int64(0)
	seen := map[string]bool{}
	for _, c := range cold.Cells {
		id := c.Workload + "/" + c.Machine
		if !seen[id] {
			seen[id] = true
			wantSims += int64(c.MeasCores)
		}
	}
	if got := sims.Load(); got != wantSims {
		t.Errorf("cold sweep ran the simulator %d times, want one collection per distinct input (%d)", got, wantSims)
	}

	warm, err := svc.Sweep(bg, req)
	if err != nil {
		t.Fatal(err)
	}
	if fits.Load() != 4 || sims.Load() != wantSims {
		t.Errorf("warm sweep refit or re-measured: fits=%d sims=%d, want 4/%d",
			fits.Load(), sims.Load(), wantSims)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Errorf("warm sweep answered differently:\ncold %+v\nwarm %+v", cold, warm)
	}
	computed, hits := svc.FitCacheStats()
	if computed != 4 || hits < 8 {
		t.Errorf("FitCacheStats = %d computed / %d hits, want 4 computed and ≥8 hits", computed, hits)
	}
}

// TestConcurrentSweepsCollapseDuplicateFits hammers the planner with
// overlapping sweeps (run under -race in CI): singleflight must collapse
// every duplicate, so the fit count equals the distinct-input count and all
// responses are identical.
func TestConcurrentSweepsCollapseDuplicateFits(t *testing.T) {
	var sims atomic.Int64
	svc := newTestService(t, Config{CollectSample: countingCollector(&sims)})
	var fits atomic.Int64
	svc.fitHook = func(string) { fits.Add(1) }
	req := SweepRequest{
		Workloads: []string{"intruder", "genome", "kmeans"},
		Machines:  []string{"Haswell"},
		Scale:     0.05,
	}

	const n = 8
	resps := make([]*SweepResponse, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = svc.Sweep(bg, req)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("sweep %d: %v", i, err)
		}
	}
	for i := 1; i < n; i++ {
		if !reflect.DeepEqual(resps[0], resps[i]) {
			t.Fatalf("sweep %d answered differently than sweep 0", i)
		}
	}
	if got := fits.Load(); got != 3 {
		t.Errorf("%d overlapping sweeps ran %d fits, want one per distinct cell (3)", n, got)
	}
	m := machine.HaswellDesktop()
	if want := int64(3 * m.OneProcessorCores()); sims.Load() != want {
		t.Errorf("simulator ran %d times, want %d", sims.Load(), want)
	}
}

// TestPredictSharesArtifactsWithSweep: a /v1/predict request and a sweep
// cell over the same (workload, machine, options) input are one fit.
func TestPredictSharesArtifactsWithSweep(t *testing.T) {
	svc := newTestService(t, Config{})
	var fits atomic.Int64
	svc.fitHook = func(string) { fits.Add(1) }
	if _, err := svc.Predict(bg, PredictRequest{Workload: "intruder", Machine: "Haswell", Scale: 0.05}); err != nil {
		t.Fatal(err)
	}
	resp, err := svc.Sweep(bg, SweepRequest{Workloads: []string{"intruder"}, Machines: []string{"Haswell"}, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cells[0].Error != "" {
		t.Fatal(resp.Cells[0].Error)
	}
	if got := fits.Load(); got != 1 {
		t.Errorf("predict + sweep over one input ran %d fits, want 1", got)
	}
}

// TestFitCacheEvictionRefits: a one-entry memo evicts the older artifact,
// and revisiting it refits — from the still-memoized measurement series,
// not from a fresh simulation.
func TestFitCacheEvictionRefits(t *testing.T) {
	var sims atomic.Int64
	svc := newTestService(t, Config{CollectSample: countingCollector(&sims)})
	svc.fits = flight.New[string, fitted](1)
	var fits atomic.Int64
	svc.fitHook = func(string) { fits.Add(1) }
	predict := func(workload string) {
		t.Helper()
		if _, err := svc.Predict(bg, PredictRequest{Workload: workload, Machine: "Haswell", Scale: 0.05}); err != nil {
			t.Fatal(err)
		}
	}
	predict("intruder")
	predict("genome") // evicts intruder's artifact
	simsBefore := sims.Load()
	predict("intruder") // refit, no re-measure
	if got := fits.Load(); got != 3 {
		t.Errorf("%d fits, want 3 (intruder evicted and refitted)", got)
	}
	if sims.Load() != simsBefore {
		t.Error("refit after eviction re-ran the simulator; the series memo should have served it")
	}
	predict("intruder") // now memo-resident again
	if got := fits.Load(); got != 3 {
		t.Errorf("%d fits after warm repeat, want 3", got)
	}
}

// TestSeriesPrefixWindowing: a 1..K request after a 1..N collection (N > K)
// is served by windowing, not by re-simulating, and is byte-identical to a
// fresh collection.
func TestSeriesPrefixWindowing(t *testing.T) {
	var sims atomic.Int64
	svc := newTestService(t, Config{CollectSample: countingCollector(&sims)})
	w, err := workloads.Lookup("genome")
	if err != nil {
		t.Fatal(err)
	}
	m := machine.HaswellDesktop()
	full, _, err := svc.Series(bg, w, m, 4, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if sims.Load() != 4 {
		t.Fatalf("full collection ran %d sims, want 4", sims.Load())
	}
	win, hit, err := svc.Series(bg, w, m, 2, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if sims.Load() != 4 {
		t.Errorf("prefix request re-ran the simulator (%d calls)", sims.Load())
	}
	if hit != false {
		t.Errorf("derived series must inherit the parent's hit flag (false), got %v", hit)
	}
	if len(win.Samples) != 2 || !reflect.DeepEqual(win.Samples, full.Samples[:2]) {
		t.Errorf("windowed series differs from the parent prefix")
	}
	if win.Scale != full.Scale || win.Workload != full.Workload || win.Machine != full.Machine {
		t.Errorf("windowed series metadata differs: %+v", win)
	}
}

// TestSeriesPrefixWindowingFromStore: a fresh service over a warm store
// serves a never-collected 1..K schedule by windowing the store's longer
// series — cross-process collection dedup.
func TestSeriesPrefixWindowingFromStore(t *testing.T) {
	dir := t.TempDir()
	cold := newTestService(t, Config{CacheDir: dir})
	w, err := workloads.Lookup("genome")
	if err != nil {
		t.Fatal(err)
	}
	m := machine.HaswellDesktop()
	full, _, err := cold.Series(bg, w, m, 4, 0.05)
	if err != nil {
		t.Fatal(err)
	}

	denying := func(sim.Workload, *machine.Config, int, float64) (counters.Sample, error) {
		t.Error("simulator invoked although the store holds a superset series")
		return counters.Sample{}, nil
	}
	warm := newTestService(t, Config{CacheDir: dir, CollectSample: denying})
	win, hit, err := warm.Series(bg, w, m, 2, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Error("store-windowed series should report a cache hit")
	}
	if len(win.Samples) != 2 || !reflect.DeepEqual(win.Samples, full.Samples[:2]) {
		t.Error("store-windowed series differs from the collected prefix")
	}
}

// TestPrefixWindowingSurvivesShortParent: a store entry whose series is
// shorter than its key claims (a truncated-but-valid file) must not poison
// the prefix path — the request falls back to a real collection instead of
// memoizing a nil series.
func TestPrefixWindowingSurvivesShortParent(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workloads.Lookup("genome")
	if err != nil {
		t.Fatal(err)
	}
	m := machine.HaswellDesktop()
	// An honest 2-sample series filed under a MaxCores-4 key.
	honest := newTestService(t, Config{})
	short, _, err := honest.Series(bg, w, m, 2, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(seriesKey(w.Name(), m.Name, 4, 0.05), short); err != nil {
		t.Fatal(err)
	}

	var sims atomic.Int64
	svc := newTestService(t, Config{CacheDir: dir, CollectSample: countingCollector(&sims)})
	// Load the lying entry into the memo via its exact key.
	if _, _, err := svc.Series(bg, w, m, 4, 0.05); err != nil {
		t.Fatal(err)
	}
	// The 1..3 request matches the lying parent in the memo but cannot be
	// windowed from it; it must collect (or window the 2-sample store
	// entry? no — 2 < 3) and succeed.
	got, _, err := svc.Series(bg, w, m, 3, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || len(got.Samples) != 3 {
		t.Fatalf("short-parent fallback returned %+v", got)
	}
	if sims.Load() == 0 {
		t.Error("unwindowable parent should have forced a real collection")
	}
	// And the result is not poisoned: a repeat answers the same series.
	again, _, err := svc.Series(bg, w, m, 3, 0.05)
	if err != nil || again != got {
		t.Errorf("repeat after fallback: %v (pointer equal: %v)", err, again == got)
	}
}

// TestSweepStreamMatchesBufferedSweep: the streamed cells arrive in plan
// order and agree exactly with the buffered Sweep response; the summary
// reports the deduplicated plan.
func TestSweepStreamMatchesBufferedSweep(t *testing.T) {
	svc := newTestService(t, Config{})
	req := SweepRequest{
		Workloads: []string{"intruder", "genome", "intruder"},
		Machines:  []string{"Haswell"},
		Scale:     0.05,
	}
	var streamed []SweepCell
	sum, err := svc.SweepStream(bg, req, func(c SweepCell) error {
		streamed = append(streamed, c)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	buffered, err := svc.Sweep(bg, req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(streamed, buffered.Cells) {
		t.Errorf("streamed cells differ from buffered sweep:\n%+v\n%+v", streamed, buffered.Cells)
	}
	for i, c := range streamed {
		if want := req.Workloads[i]; c.Workload != want {
			t.Errorf("cell %d is %s, want plan order (%s)", i, c.Workload, want)
		}
	}
	if sum.Cells != 3 || sum.DistinctSeries != 2 || sum.DistinctFits != 2 {
		t.Errorf("summary = %+v, want 3 cells over 2 distinct series/fits", sum)
	}
	if sum.Failures != 0 || !reflect.DeepEqual(sum.Workloads, req.Workloads) {
		t.Errorf("summary metadata: %+v", sum)
	}
}

// TestSweepStreamEmitErrorAborts: an emit failure (a gone client) stops the
// sweep promptly and surfaces the error.
func TestSweepStreamEmitErrorAborts(t *testing.T) {
	svc := newTestService(t, Config{})
	req := SweepRequest{
		Workloads: []string{"intruder", "genome", "kmeans"},
		Machines:  []string{"Haswell"},
		Scale:     0.05,
	}
	calls := 0
	wantErr := context.DeadlineExceeded // any sentinel will do
	_, err := svc.SweepStream(bg, req, func(SweepCell) error {
		calls++
		return wantErr
	})
	if err != wantErr {
		t.Errorf("SweepStream error = %v, want the emit error", err)
	}
	if calls != 1 {
		t.Errorf("emit ran %d times after failing, want 1", calls)
	}
}

// TestOptionsFingerprintNormalizesDefaults: spelling a default explicitly
// must share artifacts with omitting it, and real option changes must not.
func TestOptionsFingerprintNormalizesDefaults(t *testing.T) {
	base := core.Options{}
	same := []core.Options{
		{FreqRatio: 1},
		{DatasetScale: 1},
		{Workers: 7},                // throughput knob, never a result knob
		{Gate: make(chan struct{})}, // same
		{CILevel: 42, Seed: 9},      // meaningless without Bootstrap
	}
	for _, opt := range same {
		if got, want := optionsFingerprint(opt), optionsFingerprint(base); got != want {
			t.Errorf("fingerprint(%+v) = %q, want %q", opt, got, want)
		}
	}
	boot := core.Options{Bootstrap: 50}
	bootDefaults := core.Options{Bootstrap: 50, CILevel: core.DefaultCILevel, Seed: 1}
	if optionsFingerprint(boot) != optionsFingerprint(bootDefaults) {
		t.Error("bootstrap defaults must normalize")
	}
	diff := []core.Options{
		{UseSoftware: true},
		{IncludeFrontend: true},
		{Checkpoints: 4},
		{FreqRatio: 2},
		{DatasetScale: 2},
		{Bootstrap: 50},
	}
	for _, opt := range diff {
		if optionsFingerprint(opt) == optionsFingerprint(base) {
			t.Errorf("fingerprint(%+v) must differ from the zero options", opt)
		}
	}
	if optionsFingerprint(core.Options{Bootstrap: 50, Seed: 2}) == optionsFingerprint(boot) {
		t.Error("bootstrap seed must be part of the fingerprint")
	}
}
