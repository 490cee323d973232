package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/service"
)

// declared reads the metric names BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, m := range doc.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range doc.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

func keys(m map[string]metric) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestSelfTest runs every workload at a tiny scale for one pass, untraced
// and traced, with every output check, and requires a correct result that
// reports exactly the metrics BENCHMARK.json declares.
func TestSelfTest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all three workloads")
	}
	endToEnd, perLayer := declared(t)
	sort.Strings(endToEnd)
	sort.Strings(perLayer)
	for _, wl := range workloadNames() {
		for _, trace := range []bool{false, true} {
			o := options{workload: wl, seed: 7, seconds: 0.2, trace: trace, scale: 0.05,
				minRequests: 1, setups: 1, out: t.TempDir()}
			var out bytes.Buffer
			res, err := execute(context.Background(), o, &out)
			if err != nil {
				t.Fatalf("%s trace=%t: %v\n%s", wl, trace, err, out.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%t: correct=%t attempted=%d failed=%d\n%s",
					wl, trace, res.Correct, res.Attempted, res.Failed, out.String())
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if got := keys(res.Metrics); strings.Join(got, ",") != strings.Join(want, ",") {
				t.Errorf("%s trace=%t: metrics\n got %v\nwant %v", wl, trace, got, want)
			}
			if !trace {
				for _, name := range endToEnd {
					if v := res.Metrics[name].Value; v == 0 {
						t.Errorf("%s: end-to-end metric %s is 0", wl, name)
					}
				}
			}
		}
	}
}

func TestScoreComparedCatchesBadErrorPct(t *testing.T) {
	resp := &service.PredictResponse{
		Compared:    true,
		TargetCores: []int{1, 2, 3},
		Time:        []float64{1, 0.5, 3},
		Actual:      []float64{1, 0.5, 2},
		ErrorPct:    []float64{0, 0, 50},
	}
	var win window
	if got := scoreCompared(&win, "ok", resp, 2); got != 50 || len(win.problems) != 0 {
		t.Fatalf("max error %v, problems %v; want 50 and none", got, win.problems)
	}
	resp.ErrorPct[1] = 3
	scoreCompared(&win, "bad", resp, 2)
	if len(win.problems) != 1 {
		t.Fatalf("a wrong error_pct went unnoticed: %v", win.problems)
	}
	resp.Compared = false
	if got := scoreCompared(&win, "uncompared", resp, 2); !math.IsNaN(got) || len(win.problems) != 2 {
		t.Fatalf("an uncompared prediction scored %v (problems %v)", got, win.problems)
	}
}

func TestCheckTimesCatchesNonPositive(t *testing.T) {
	resp := &service.PredictResponse{TargetCores: []int{1, 2}, Time: []float64{1, 0}}
	var win window
	checkTimes(&win, "zero", resp, 2)
	resp.Time[1] = math.Inf(1)
	checkTimes(&win, "inf", resp, 2)
	checkTimes(&win, "short", resp, 3)
	if len(win.problems) != 3 {
		t.Fatalf("want 3 problems, got %v", win.problems)
	}
}

func TestCoveredUnionsOverlappingChildren(t *testing.T) {
	parent := span{StartNs: 0, EndNs: 100}
	kids := []span{{StartNs: 10, EndNs: 40}, {StartNs: 30, EndNs: 50}, {StartNs: 90, EndNs: 130}, {StartNs: 60, EndNs: 60}}
	if got := covered(parent, kids); got != 50 {
		t.Fatalf("covered = %d, want 50 (10..50 and 90..100)", got)
	}
}

func TestQuantileAndPermutation(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := quantile(xs, 0.5); got != 2.5 {
		t.Fatalf("median = %v, want 2.5", got)
	}
	if got := quantile(xs, 1); got != 4 {
		t.Fatalf("max = %v, want 4", got)
	}
	a, b := permutation(19, 5, 2), permutation(19, 5, 2)
	if len(a) != 19 {
		t.Fatalf("permutation of 19 has %d items", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("the same seed and stream gave different orders")
		}
	}
	if c := permutation(19, 6, 2); equalInts(a, c) {
		t.Fatal("a different seed gave the same order")
	}
}

func equalInts(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return len(a) == len(b)
}

func TestHostNormalization(t *testing.T) {
	// Each factor is the median of the five probes nearest, over 4 ms.
	probes := []float64{4, 4, 4, 8, 8, 8, 8, 8}
	want := []float64{1, 1, 1, 2, 2, 2, 2, 2}
	got := localFactors(probes)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("local factors %v, want %v", got, want)
		}
	}
	if f := hostFactor(nil, probeRefMs); f != 1 {
		t.Fatalf("host factor without probes = %v, want 1", f)
	}

	e := &env{out: io.Discard}
	// A slice that ran on a host twice as slow as the reference: its
	// latencies halve and its rate doubles.
	fleet := &window{attempted: 2, sub: []subWindow{{lat: []float64{2, 2}, seconds: 1, factor: 2}}}
	m := endToEnd(e, fleet, 1)
	if m["latency_p50_ms"].Value != 1 || m["throughput_rps"].Value != 4 {
		t.Fatalf("normalized slice: p50 %v, rate %v; want 1 and 4", m["latency_p50_ms"].Value, m["throughput_rps"].Value)
	}
	// Single-caller requests stand at their medians over the passes.
	single := &window{attempted: 6, perReq: [][]float64{{10, 30, 20}, {100, 300, 200}},
		sub: []subWindow{{lat: []float64{1}, seconds: 1, factor: 1}}}
	m = endToEnd(e, single, 1)
	if m["latency_p50_ms"].Value != 110 || m["throughput_rps"].Value != 2/(220.0/1000) {
		t.Fatalf("per-request medians: p50 %v, rate %v; want 110 and %v", m["latency_p50_ms"].Value, m["throughput_rps"].Value, 2/(220.0/1000))
	}
}
