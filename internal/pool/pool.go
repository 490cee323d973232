// Package pool is the repository's one bounded fan-out: a fixed set of
// worker goroutines draining an unbuffered index channel. The pipeline's
// candidate fits and bootstrap replicates, the service's per-core
// collection and its sweep and explore cells, the simulator's series
// collection and the experiment drivers' per-row work all fan out through
// Run, which keeps peak goroutine count (and therefore peak memory and
// scheduler pressure) independent of the item count — and keeps the
// boundedspawn analyzer's invariant checkable in one place.
//
// Pool work never starts another pool over the same semaphore: the outer
// worker would hold a slot while waiting for inner ones, which deadlocks
// once the semaphore is full.
package pool

import (
	"context"
	"runtime"
	"sync"
)

// Width is the number of workers Run starts for n items: workers, or
// runtime.GOMAXPROCS(0) when workers <= 0, never more than n.
func Width(n, workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return min(workers, n)
}

// Run calls fn(w, i) for every i in [0, n) from Width(n, workers)
// goroutines and returns once every call has finished. w is the calling
// worker's index: 0 <= w < Width(n, workers), and at most one goroutine
// ever observes a given w, so fn may keep per-worker scratch state (a
// reusable simulator engine) without synchronization. Indices are handed
// out in order but may complete in any order, so fn must write its result
// to a per-index slot (or otherwise synchronize) rather than append to
// shared state.
//
// sem, when non-nil, is a counting semaphore (a buffered channel) that may
// be shared with other pools: a worker holds one slot around each fn call,
// so concurrent pools share one CPU budget. nil means ungated.
//
// Cancelling ctx stops dispatch, drains the workers and returns ctx.Err();
// a call already running finishes (each is one bounded unit of work), so
// the pool never leaks goroutines.
func Run(ctx context.Context, n, workers int, sem chan struct{}, fn func(w, i int)) error {
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < Width(n, workers); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if ctx.Err() != nil {
					continue // drain without doing the work
				}
				if sem != nil {
					select {
					case sem <- struct{}{}:
					case <-ctx.Done():
						continue
					}
				}
				fn(w, i)
				if sem != nil {
					<-sem
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

// ForN is Run for callers with no context and no per-worker state: fn(i)
// for every i in [0, n), never cancelled.
func ForN(n, workers int, fn func(i int)) {
	Run(context.Background(), n, workers, nil, func(_, i int) { fn(i) })
}
