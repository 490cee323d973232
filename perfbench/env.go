package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/counters"
	"repro/internal/machine"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/workloads"
)

// env is the state one run shares across its workload: options, a scratch
// directory, and the simulation hook every Service is built with.
type env struct {
	o   options
	out io.Writer
	// dir is this run's scratch root (stores, fixtures); removed at exit.
	dir string

	// simCalls counts every simulation any benchmark-built Service ran.
	simCalls atomic.Int64
	// tr is the active tracer (nil while untraced); cur the request the
	// single caller is executing, which the simulation hook attributes
	// its spans to.
	tr  atomic.Pointer[tracer]
	cur atomic.Pointer[activeReq]

	simMu  sync.Mutex
	simLog []simCall
}

// activeReq identifies the request in flight: its root span and id.
type activeReq struct{ span, req int64 }

// simCall records one simulation's arguments while tracing, so the program
// build can be replayed with sim.CountOps on exactly the same inputs.
type simCall struct {
	w     sim.Workload
	m     *machine.Config
	cores int
	scale float64
	req   activeReq
	ns    int64
}

func newEnv(o options, out io.Writer) (*env, error) {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.out, "run-"+o.workload+"-")
	if err != nil {
		return nil, err
	}
	return &env{o: o, out: out, dir: dir}, nil
}

func (e *env) close() { os.RemoveAll(e.dir) }

// windowSeconds and minRequests size a timed window. The end-to-end window
// runs o.seconds and, on the single-caller workloads, at least
// o.minRequests requests for its percentiles. The two windows of a traced
// run split o.seconds between them and report per-layer means and medians,
// so a traced run costs about what an untraced one does.
func (e *env) windowSeconds() float64 {
	if e.o.trace {
		return e.o.seconds / 2
	}
	return e.o.seconds
}

func (e *env) minRequests() int {
	if e.o.trace {
		return 1
	}
	return e.o.minRequests
}

// reports says whether the window traced by tr is the one whose metrics the
// run reports: the untraced window of an end-to-end run, the traced window
// of a traced run. Untimed scoring phases run only there.
func (e *env) reports(tr *tracer) bool { return (tr != nil) == e.o.trace }

func (e *env) logf(format string, args ...any) {
	fmt.Fprintf(e.out, "# "+format+"\n", args...)
}

func (e *env) printHost() {
	h := hostInfo{
		Workload: e.o.workload, Seed: e.o.seed, Seconds: e.o.seconds, Scale: e.o.scale,
		Trace: e.o.trace, GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		GoVersion: runtime.Version(), CPUModel: cpuModel(),
	}
	data, _ := json.Marshal(h) // plain struct of strings and numbers
	e.logf("host %s", data)
}

// collect is the service.Config.CollectSample hook of every Service the
// benchmark builds: sim.Collect, counted, and wrapped in a span while
// tracing.
func (e *env) collect(w sim.Workload, m *machine.Config, cores int, scale float64) (counters.Sample, error) {
	e.simCalls.Add(1)
	tr := e.tr.Load()
	if tr == nil {
		return sim.Collect(w, m, cores, scale)
	}
	cur := activeReq{}
	if p := e.cur.Load(); p != nil {
		cur = *p
	}
	sp := tr.start("sim.collect", cur.span, cur.req)
	s, err := sim.Collect(w, m, cores, scale)
	d := sp.end()
	e.simMu.Lock()
	e.simLog = append(e.simLog, simCall{w: w, m: m, cores: cores, scale: scale, req: cur, ns: d.Nanoseconds()})
	e.simMu.Unlock()
	return s, err
}

// takeSims returns and clears the simulations logged since the last call.
func (e *env) takeSims() []simCall {
	e.simMu.Lock()
	defer e.simMu.Unlock()
	out := e.simLog
	e.simLog = nil
	return out
}

// newService builds a Service the way `estima serve -cache dir` does, with
// the benchmark's simulation hook.
func (e *env) newService(cacheDir string) (*service.Service, error) {
	return service.New(service.Config{CacheDir: cacheDir, CollectSample: e.collect})
}

// usesSoftwareStalls is the paper's §5.3 rule (the one the experiment
// harness applies): software stalls for every STAMP workload and for
// streamcluster.
func usesSoftwareStalls(workload string) bool {
	family := spec.Family(workload)
	for _, n := range workloads.STAMPNames() {
		if n == family {
			return true
		}
	}
	return family == "streamcluster" || family == "streamcluster-spin" ||
		family == "intruder-batch"
}

// permutation returns a seed-determined order of n items for one stream
// (a pass or a client): the seed changes only the order requests are sent
// in, never their contents.
func permutation(n int, seed int64, stream uint64) []int {
	return rand.New(rand.NewPCG(uint64(seed), stream)).Perm(n)
}

// accuracy collects each scenario's maximum error beyond the measured
// window.
type accuracy struct {
	names  []string
	maxErr []float64
}

func (a *accuracy) add(name string, maxErr float64) {
	a.names = append(a.names, name)
	a.maxErr = append(a.maxErr, maxErr)
}

func (a accuracy) meanMaxErr() float64 { return mean(a.maxErr) }

// within returns the share (percent) of scenarios whose maximum error is
// below pct.
func (a accuracy) within(pct float64) float64 {
	if len(a.maxErr) == 0 {
		return math.NaN()
	}
	n := 0
	for _, v := range a.maxErr {
		if v < pct {
			n++
		}
	}
	return 100 * float64(n) / float64(len(a.maxErr))
}

// print writes one line per scenario, in the given order.
func (a accuracy) print(e *env, label string) {
	idx := make([]int, len(a.names))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(i, j int) bool { return a.names[idx[i]] < a.names[idx[j]] })
	for _, i := range idx {
		e.logf("%s: %-16s max error beyond window %8.3f%%", label, a.names[i], a.maxErr[i])
	}
	e.logf("%s: mean max error %.3f%%, %.1f%% of %d scenarios below 25%%",
		label, a.meanMaxErr(), a.within(25), len(a.maxErr))
}

// checkTimes verifies a prediction covers every target core with a finite,
// positive time.
func checkTimes(win *window, what string, resp *service.PredictResponse, cores int) {
	if len(resp.TargetCores) != cores || len(resp.Time) != cores {
		win.failf("%s: %d target cores / %d times, want %d", what, len(resp.TargetCores), len(resp.Time), cores)
		return
	}
	for i, t := range resp.Time {
		if resp.TargetCores[i] != i+1 {
			win.failf("%s: target core %d is %d", what, i+1, resp.TargetCores[i])
			return
		}
		if math.IsNaN(t) || math.IsInf(t, 0) || t <= 0 {
			win.failf("%s: time_s[%d] = %v is not finite and positive", what, i, t)
			return
		}
	}
}

// scoreCompared checks a compared prediction's error_pct against a
// recomputation from time_s and actual_s, and returns the maximum error on
// the target cores beyond the measured window.
func scoreCompared(win *window, what string, resp *service.PredictResponse, measCores int) float64 {
	if !resp.Compared || len(resp.Actual) != len(resp.Time) || len(resp.ErrorPct) != len(resp.Time) {
		win.failf("%s: not compared against the target machine", what)
		return math.NaN()
	}
	maxErr := 0.0
	for i := range resp.Time {
		want := math.Abs(resp.Time[i]-resp.Actual[i]) / math.Abs(resp.Actual[i]) * 100
		if got := resp.ErrorPct[i]; math.Abs(got-want) > 1e-9*math.Max(1, want) {
			win.failf("%s: error_pct[%d] = %v, recomputed %v", what, i, got, want)
		}
		if resp.TargetCores[i] > measCores {
			maxErr = math.Max(maxErr, want)
		}
	}
	return maxErr
}

// sameTimes reports whether two predictions carry identical time_s.
func sameTimes(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// metricName sanitizes a scenario name to the metric-name alphabet.
func metricName(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '.', r == '-':
			return r
		}
		return '_'
	}, s)
}

// quantile is the linearly interpolated q-quantile of xs (NaN when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return sum(xs) / float64(len(xs))
}

func sum(xs []float64) float64 {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total
}
