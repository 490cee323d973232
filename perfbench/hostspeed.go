package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// Host-speed normalization.
//
// The benchmark runs on small shared hosts whose speed wanders: on a
// 2-vCPU Xeon VM the same requests take up to 2x longer for stretches of
// seconds to minutes, with almost no steal time, because neighbours share
// the cores' caches and execution units. Longer windows and medians over
// sub-windows do not remove a slow stretch that covers a whole run, so the
// end-to-end timings are reported host-normalized. While the system under
// test is idle, the benchmark times a fixed probe of its own that runs no
// repository code: a sorting kernel before every request of a
// single-caller pass and around every set-up, a loopback HTTP exchange
// between warm-fleet's one-second slices. The host factor of a request, a
// set-up or a slice is the probe's median time around it over the probe's
// time on the reference host, and times are divided (throughput
// multiplied) by it: the figures are what the work would take on that
// host. The wall-clock figures are printed beside them on the '#' lines.

// probeRefMs defines the reference host of the normalized figures: a round
// figure near the kernel's time on an unloaded 2-vCPU Intel Xeon VM with
// GOMAXPROCS 2 (4.1 to 4.8 ms measured). It only scales the figures; it
// must stay fixed for them to be comparable across commits.
const probeRefMs = 4.0

// probeLen is the number of values each kernel instance sorts.
const probeLen = 1 << 15

// probeKernel sorts a fixed pseudo-random slice and sums square roots over
// it: CPU- and cache-bound work of a fixed size.
func probeKernel(seed uint64) float64 {
	xs := make([]float64, probeLen)
	x := seed
	for i := range xs {
		x = x*6364136223846793005 + 1442695040888963407
		xs[i] = float64(x >> 11)
	}
	sort.Float64s(xs)
	s := 0.0
	for _, v := range xs {
		s += math.Sqrt(v)
	}
	return s
}

// probeMs runs one kernel instance per GOMAXPROCS in parallel, as the
// service's own fan-outs do, and returns the wall time in ms.
func probeMs() float64 {
	n := runtime.GOMAXPROCS(0)
	out := make([]float64, n) // the results, so the work is not optimized away
	t := time.Now()
	var wg sync.WaitGroup
	for g := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[g] = probeKernel(uint64(g + 1))
		}()
	}
	wg.Wait()
	return float64(time.Since(t).Nanoseconds()) / 1e6
}

// burstProbes is how many kernel probes a burst takes.
const burstProbes = 5

// probeBurst times burstProbes kernel probes in a row, for a stretch of
// work without per-request probes: a set-up.
func probeBurst() []float64 {
	probes := make([]float64, burstProbes)
	for j := range probes {
		probes[j] = probeMs()
	}
	return probes
}

// hostFactor is how much slower than the reference host, on which the
// probe takes refMs, the host ran while the probes were taken (1 when there
// are none).
func hostFactor(probes []float64, refMs float64) float64 {
	if len(probes) == 0 {
		return 1
	}
	return median(probes) / refMs
}

// localFactors returns, for each probe of a sequence taken one per
// request, the host factor of the probeSpan probes nearest it (its own, and
// up to half of the rest before and after it): the host's speed around
// that request.
func localFactors(probes []float64) []float64 {
	out := make([]float64, len(probes))
	for j := range probes {
		lo := max(0, j-probeSpan/2)
		hi := min(len(probes), lo+probeSpan)
		lo = max(0, hi-probeSpan)
		out[j] = hostFactor(probes[lo:hi], probeRefMs)
	}
	return out
}

// probeSpan is how many consecutive per-request probes localFactors
// takes the median of.
const probeSpan = 5

// loopRefMs is loopProbe's counterpart of probeRefMs: a round figure near
// one exchange's median time on the same VM (0.022 to 0.043 ms measured).
const loopRefMs = 0.03

// loopRequests is how many exchanges one loopback burst times.
const loopRequests = 500

// loopProbe times loopback HTTP exchanges: sequential POSTs of a small body
// to a local net/http server that answers 1 KiB, on one keep-alive
// connection. It is the path warm-fleet's requests take, with no
// repository code on it. warm-fleet spends its time in the network stack
// and the Go scheduler rather than in computation, and the sorting kernel
// tracks its slowdowns poorly, so its slices are normalized by this probe
// instead, by the median exchange: the probe's own tail is too sparse to
// follow the fleet's.
type loopProbe struct {
	srv    *httptest.Server
	client *http.Client
}

func newLoopProbe() *loopProbe {
	body := bytes.Repeat([]byte("x"), 1024)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write(body) // a failed write fails the client's exchange
	}))
	return &loopProbe{srv: srv, client: srv.Client()}
}

func (p *loopProbe) close() {
	p.client.CloseIdleConnections()
	p.srv.Close()
}

// burst times loopRequests exchanges in a row and returns each in ms.
func (p *loopProbe) burst(ctx context.Context) ([]float64, error) {
	out := make([]float64, loopRequests)
	for j := range out {
		t := time.Now()
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.srv.URL, strings.NewReader(`{"probe":1}`))
		if err != nil {
			return nil, err
		}
		resp, err := p.client.Do(req)
		if err != nil {
			return nil, fmt.Errorf("loopback probe: %w", err)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("loopback probe: %w", err)
		}
		out[j] = float64(time.Since(t).Nanoseconds()) / 1e6
	}
	return out, nil
}
