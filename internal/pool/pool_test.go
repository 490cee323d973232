package pool

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRun drives Run through one harness per case and checks every
// invariant the package promises: each index runs at most once (exactly
// once unless cancelled); the peak of concurrent calls is exactly the
// case's limit (a barrier holds the first calls until that many are in
// flight, so the width is proved reached without timing assumptions);
// worker indices stay below Width and no two goroutines hold one at once;
// cancellation stops dispatch and returns ctx.Err(); and every worker
// goroutine is gone when Run returns.
func TestRun(t *testing.T) {
	cases := []struct {
		name       string
		n, workers int
		// sem is the slot count of one semaphore every caller shares; 0
		// runs ungated.
		sem int
		// callers is how many Run calls run at once over the same ctx.
		callers int
		// maxprocs sets GOMAXPROCS for the case; 0 leaves it alone.
		maxprocs int
		// cancelAt cancels the ctx inside the call for that index; -1
		// never cancels.
		cancelAt int
		// cancelFirst cancels the ctx before Run starts.
		cancelFirst bool
		// limit is the exact peak of concurrent fn calls across callers.
		limit int
	}{
		{name: "every index runs once", n: 57, workers: 4, callers: 1, cancelAt: -1, limit: 4},
		{name: "concurrency stays within the worker count", n: 24, workers: 3, callers: 1, cancelAt: -1, limit: 3},
		{name: "callers sharing a one-slot semaphore never overlap", n: 16, workers: 4, sem: 1, callers: 2, cancelAt: -1, limit: 1},
		{name: "semaphore narrower than the pool", n: 20, workers: 4, sem: 2, callers: 1, cancelAt: -1, limit: 2},
		{name: "cancelled ctx stops dispatch", n: 1000, workers: 2, callers: 1, cancelAt: 3, limit: 2},
		{name: "ctx cancelled before the call runs nothing", n: 10, workers: 2, callers: 1, cancelAt: -1, cancelFirst: true},
		{name: "workers default to GOMAXPROCS", n: 8, callers: 1, maxprocs: 1, cancelAt: -1, limit: 1},
		{name: "never more workers than items", n: 3, workers: 8, callers: 1, cancelAt: -1, limit: 3},
		{name: "no items", n: 0, workers: 4, callers: 1, cancelAt: -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.maxprocs > 0 {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(tc.maxprocs))
			}
			width := Width(tc.n, tc.workers)
			var sem chan struct{}
			if tc.sem > 0 {
				sem = make(chan struct{}, tc.sem)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if tc.cancelFirst {
				cancel()
			}
			before := runtime.NumGoroutine()

			hits := make([][]int32, tc.callers)
			busy := make([][]atomic.Bool, tc.callers)
			for c := range hits {
				hits[c] = make([]int32, tc.n)
				busy[c] = make([]atomic.Bool, width)
			}
			var (
				started      atomic.Int32
				mu           sync.Mutex
				active, peak int
			)
			allIn := make(chan struct{})
			call := func(c, w, i int) {
				if w < 0 || w >= width {
					t.Errorf("worker index %d outside [0, %d)", w, width)
					return
				}
				if !busy[c][w].CompareAndSwap(false, true) {
					t.Errorf("worker index %d held by two goroutines at once", w)
				}
				defer busy[c][w].Store(false)
				atomic.AddInt32(&hits[c][i], 1)
				k := int(started.Add(1))
				if k == tc.limit {
					close(allIn)
				}
				mu.Lock()
				active++
				peak = max(peak, active)
				mu.Unlock()
				if k <= tc.limit {
					select {
					case <-allIn:
					case <-time.After(5 * time.Second):
						t.Errorf("only %d of %d calls ever ran at once", started.Load(), tc.limit)
					}
				}
				if i == tc.cancelAt {
					cancel()
				}
				// Hold the call briefly, so a pool or semaphore that let
				// more calls in would be caught overlapping.
				time.Sleep(50 * time.Microsecond)
				mu.Lock()
				active--
				mu.Unlock()
			}

			errs := make([]error, tc.callers)
			ForN(tc.callers, tc.callers, func(c int) {
				errs[c] = Run(ctx, tc.n, tc.workers, sem, func(w, i int) { call(c, w, i) })
			})

			cancelled := tc.cancelFirst || tc.cancelAt >= 0
			for c, err := range errs {
				if cancelled && !errors.Is(err, context.Canceled) {
					t.Errorf("caller %d: Run = %v, want context.Canceled", c, err)
				}
				if !cancelled && err != nil {
					t.Errorf("caller %d: Run = %v, want nil", c, err)
				}
			}
			calls := 0
			for c := range hits {
				for i, h := range hits[c] {
					calls += int(h)
					if h > 1 || (h == 0 && !cancelled) {
						t.Errorf("caller %d: index %d ran %d times, want 1", c, i, h)
					}
				}
			}
			if tc.cancelFirst && calls != 0 {
				t.Errorf("%d calls ran under a ctx cancelled before Run", calls)
			}
			if tc.cancelAt >= 0 && calls > tc.cancelAt+1+width {
				t.Errorf("%d calls ran after cancelling at index %d, want at most %d",
					calls, tc.cancelAt, tc.cancelAt+1+width)
			}
			if !cancelled && peak != tc.limit {
				t.Errorf("peak of %d concurrent calls, want %d", peak, tc.limit)
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					t.Errorf("%d goroutines left after Run returned, want %d", runtime.NumGoroutine(), before)
					break
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

func TestForNEdgeCases(t *testing.T) {
	ForN(0, 4, func(i int) { t.Fatalf("fn called for n=0 (i=%d)", i) })
	ran := false
	ForN(1, 0, func(i int) { ran = true })
	if !ran {
		t.Fatal("fn not called for n=1, workers=0")
	}
}
