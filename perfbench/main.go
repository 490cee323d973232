// Command perfbench is the repository benchmark. It drives the ESTIMA
// service only through its public Go API and its HTTP surface, on three
// workloads that split the layers a request crosses:
//
//	cold-predict  fresh services predict all 19 Table-4 workloads on Xeon20
//	              and Opteron from simulated one-processor windows
//	stored-eval   fresh services over a stored 1..20 Xeon20 ground truth
//	              predict from the 1..10 window and score the error
//	warm-fleet    two clients poll a warmed coordinator + 2 workers over
//	              loopback HTTP
//
// Every run checks the outputs and prints, as its last stdout line, one
// JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with -trace 0, the per-layer metrics of a separate traced window
// with -trace 1. See README.md for the metric definitions.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	perfbench --workload cold-predict --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// options are the settings of one benchmark run: the four command-line
// flags, plus fixed values the self-test shrinks.
type options struct {
	workload string
	seed     int64
	// seconds is the minimum timed window; single-caller workloads also
	// keep going until minRequests requests were timed, in whole passes.
	seconds float64
	trace   bool
	// scale is the dataset scale of every request (1, the paper's
	// fidelity).
	scale       float64
	minRequests int
	setups      int
	// out holds the run's scratch directory (removed at exit) and the span
	// dumps of traced runs.
	out string
}

// metric is one named measurement of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last stdout line of every run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseOptions(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	res, err := execute(ctx, o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: encoding result:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func parseOptions(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed permuting request order and client schedules")
	fs.Float64Var(&o.seconds, "seconds", 10, "minimum timed window in seconds")
	fs.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a separate traced window")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if _, ok := workloadByName[o.workload]; !ok {
		return o, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	o.trace = trace == 1
	if o.seconds <= 0 {
		return o, fmt.Errorf("-seconds must be positive, got %g", o.seconds)
	}
	o.scale = 1
	o.minRequests = 150
	o.setups = workloadByName[o.workload].setups
	o.out = filepath.Join(".bench_build", "perfbench")
	return o, nil
}

// bench is one workload: set-up (repeatable; each call replaces the
// previous fixture), timed windows over the fixture, and teardown.
type bench interface {
	setup(ctx context.Context) error
	// window times one closed-loop window. tr is nil for the untraced
	// window that produces the end-to-end metrics; a traced window also
	// fills window.layers.
	window(ctx context.Context, tr *tracer) (*window, error)
	teardown()
}

// workloadByName registers each workload with how many set-ups a run
// times, by their cost: cold-predict's takes a tenth of a second and its
// median needs more samples to be steady; stored-eval's simulates 380 runs
// and warm-fleet's 120, so two each keep a run within its time budget.
var workloadByName = map[string]struct {
	build  func(*env) bench
	setups int
}{
	"cold-predict": {newColdBench, 5},
	"stored-eval":  {newStoredBench, 2},
	"warm-fleet":   {newFleetBench, 2},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloadByName))
	for n := range workloadByName {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// execute runs one workload: set-ups, then the untraced window (end-to-end
// metrics) or, with tracing, an untraced and a traced window (per-layer
// metrics and the tracing overhead between them).
func execute(ctx context.Context, o options, stdout io.Writer) (*result, error) {
	e, err := newEnv(o, stdout)
	if err != nil {
		return nil, err
	}
	defer e.close()
	e.printHost()

	b := workloadByName[o.workload].build(e)
	defer b.teardown()
	// Each set-up is host-normalized by the probes just before and after
	// it (hostspeed.go).
	var wallSecs, setupSecs []float64
	for i := 0; i < o.setups; i++ {
		if i > 0 {
			b.teardown()
		}
		probes := probeBurst()
		t0 := time.Now()
		if err := b.setup(ctx); err != nil {
			return nil, fmt.Errorf("%s setup: %w", o.workload, err)
		}
		secs := time.Since(t0).Seconds()
		wallSecs = append(wallSecs, secs)
		setupSecs = append(setupSecs, secs/hostFactor(append(probes, probeBurst()...), probeRefMs))
	}
	e.logf("setup: %d runs, median %.4fs wall clock %v, %.4fs host-normalized %v", len(setupSecs),
		median(wallSecs), roundAll(wallSecs, 4), median(setupSecs), roundAll(setupSecs, 4))

	base, err := b.window(ctx, nil)
	if err != nil {
		return nil, err
	}
	res := &result{Attempted: base.attempted, Failed: base.failed, Metrics: map[string]metric{}}
	problems := append([]string(nil), base.problems...)
	if !o.trace {
		for k, v := range endToEnd(e, base, median(setupSecs)) {
			res.Metrics[k] = v
		}
	} else {
		tr := newTracer()
		traced, err := b.window(ctx, tr)
		if err != nil {
			return nil, err
		}
		problems = append(problems, traced.problems...)
		res.Attempted += traced.attempted
		res.Failed += traced.failed
		for k, v := range traced.layers {
			res.Metrics[k] = v
		}
		// Overhead of recording the live spans: the traced window's mean
		// host-normalized request time against the untraced one. Replays
		// run outside the timed requests and do not count.
		res.Metrics["trace.overhead_pct"] = metric{(traced.meanNormLat()/base.meanNormLat() - 1) * 100, "%"}
		path := filepath.Join(o.out, fmt.Sprintf("trace-%s-seed%d.json", o.workload, o.seed))
		if err := tr.dump(path); err != nil {
			return nil, err
		}
		e.logf("trace: %d spans written to %s", tr.len(), path)
		for _, l := range tr.selfTimes() {
			e.logf("trace: %-22s n=%-6d total %10.2fms  self %10.2fms", l.name, l.count, l.totalMs, l.selfMs)
		}
	}
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			problems = append(problems, fmt.Sprintf("metric %s is not finite", k))
			res.Metrics[k] = metric{0, m.Unit}
		}
	}
	for _, p := range problems {
		e.logf("CHECK FAILED: %s", p)
	}
	e.logf("checks: %d failed", len(problems))
	res.Correct = len(problems) == 0
	return res, nil
}

// endToEnd turns an untraced window into the end-to-end metrics every
// workload reports. Latency and throughput are host-normalized
// (hostspeed.go): on a single-caller workload they are taken over each
// request's median over the passes, on warm-fleet they are the median over
// its slices of each slice's own. The wall-clock figures, medians over the
// sub-windows, are logged beside them.
func endToEnd(e *env, w *window, setupSec float64) map[string]metric {
	ok := w.attempted - w.failed
	subs := w.sub
	if len(subs) == 0 {
		subs = []subWindow{{lat: w.lat, seconds: w.elapsed}}
	}
	// over is the median over the sub-windows of stat(s, f), where f is
	// the sub-window's host factor, or 1 for the wall-clock figures.
	over := func(norm bool, stat func(s subWindow, f float64) float64) float64 {
		vals := make([]float64, len(subs))
		for i, s := range subs {
			f := 1.0
			if norm {
				f = s.hostFactor()
			}
			vals[i] = stat(s, f)
		}
		return median(vals)
	}
	pct := func(norm bool, q float64) float64 {
		return over(norm, func(s subWindow, f float64) float64 { return quantile(s.lat, q) / f })
	}
	tput := func(norm bool) float64 {
		return over(norm, func(s subWindow, f float64) float64 { return float64(len(s.lat)) * f / s.seconds })
	}
	factors := make([]float64, len(subs))
	for i, s := range subs {
		factors[i] = s.hostFactor()
	}
	e.logf("wall clock: p50 %.3fms p90 %.3fms p99 %.3fms throughput %.3f/s; host factor median %.3f over %d sub-windows %v",
		pct(false, 0.50), pct(false, 0.90), pct(false, 0.99), tput(false), median(factors), len(subs), roundAll(factors, 3))
	var p50, p90, p99, rps float64
	if meds := reqMedians(w.perReq); len(meds) > 0 {
		// A single-caller workload repeats a fixed request set: each
		// request stands at its median over the passes, and throughput is
		// the set's size over the sum of those medians.
		p50, p90, p99 = quantile(meds, 0.50), quantile(meds, 0.90), quantile(meds, 0.99)
		rps = float64(len(meds)) / (sum(meds) / 1000)
	} else {
		p50, p90, p99, rps = pct(true, 0.50), pct(true, 0.90), pct(true, 0.99), tput(true)
	}
	return map[string]metric{
		"setup_s":           {setupSec, "s"},
		"latency_p50_ms":    {p50, "ms"},
		"latency_p90_ms":    {p90, "ms"},
		"latency_p99_ms":    {p99, "ms"},
		"throughput_rps":    {rps, "1/s"},
		"success_pct":       {100 * float64(ok) / float64(max(w.attempted, 1)), "%"},
		"peak_rss_mb":       {peakRSSMB(), "MB"},
		"pred_err_mean_pct": {w.acc.meanMaxErr(), "%"},
		"pred_within25_pct": {w.acc.within(25), "%"},
	}
}

// window is one timed closed-loop window.
type window struct {
	// lat holds the latency in ms of every successful timed request.
	lat               []float64
	attempted, failed int
	// elapsed is the timed wall time in seconds: the sum of the request
	// calls (and per-pass service construction) for single-caller
	// workloads, the client window for the fleet.
	elapsed  float64
	problems []string
	acc      accuracy
	// sub splits the window into consecutive sub-windows: the passes of a
	// single-caller workload, one-second slices of warm-fleet's window. The
	// host's speed wanders on a scale of seconds; a median over sub-windows
	// is not moved by one slow stretch or one stray slow request.
	sub []subWindow
	// perReq holds, for a single-caller workload, each request's
	// host-normalized latencies over the passes, indexed like its request
	// list.
	perReq [][]float64
	// layers holds the per-layer metrics of a traced window.
	layers map[string]metric
}

// subWindow holds the successful requests that completed in one stretch of
// a window.
type subWindow struct {
	lat     []float64
	seconds float64
	// factor is the host factor of the stretch (hostspeed.go); 0 means
	// no probe was taken.
	factor float64
}

func (s subWindow) hostFactor() float64 {
	if s.factor <= 0 {
		return 1
	}
	return s.factor
}

// reqMedians returns the median of every request that completed at least
// once.
func reqMedians(perReq [][]float64) []float64 {
	var meds []float64
	for _, lat := range perReq {
		if len(lat) > 0 {
			meds = append(meds, median(lat))
		}
	}
	return meds
}

// meanNormLat is the mean host-normalized latency of the window.
func (w *window) meanNormLat() float64 {
	var norm []float64
	for _, lat := range w.perReq {
		norm = append(norm, lat...)
	}
	if len(w.perReq) == 0 {
		for _, s := range w.sub {
			for _, ms := range s.lat {
				norm = append(norm, ms/s.hostFactor())
			}
		}
	}
	if len(norm) == 0 {
		return mean(w.lat)
	}
	return mean(norm)
}

func (w *window) failf(format string, args ...any) {
	w.problems = append(w.problems, fmt.Sprintf(format, args...))
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(rest), "%g", &kb)
			return kb / 1024
		}
	}
	return 0
}

// hostInfo is the host record printed before the result line.
type hostInfo struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Scale      float64 `json:"scale"`
	Trace      bool    `json:"trace"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func roundAll(xs []float64, digits int) []float64 {
	p := math.Pow(10, float64(digits))
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x*p) / p
	}
	return out
}
