// Package flight shares one execution per key among every concurrent
// caller asking for it, and optionally retains recent successful results.
// It is the one singleflight behind the service's series memo and
// fitted-model memo and the cluster coordinator's request coalescing: all
// waiter counting, detaching, cancel-on-last-waiter and eviction live here.
package flight

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"
)

// call is one execution of fn for one key.
type call[V any] struct {
	// done is closed under the group mutex when fn has returned; val and
	// err are immutable afterwards (happens-before via the close).
	done chan struct{}
	val  V
	err  error
	// waiters counts the callers that may still cancel the execution;
	// guarded by the group mutex, read only while done is open.
	waiters int
	cancel  context.CancelFunc
	// elem is the call's place in the retention list; nil unless retained.
	elem *list.Element
}

// Group runs fn at most once per key at a time for all concurrent callers.
// The execution is detached from any one caller's context and cancelled
// only when its last waiter gives up. With keep > 0 the group retains up
// to keep successful results in least-recently-used order; failures are
// never retained. A Group is safe for concurrent use.
type Group[K comparable, V any] struct {
	keep int

	mu  sync.Mutex
	m   map[K]*call[V] // in flight or retained
	lru list.List      // retained keys, most recently used at the front

	// started counts executions run; hits counts calls answered by joining
	// an execution in flight or from a retained result.
	started atomic.Int64
	hits    atomic.Int64
}

// New builds a Group retaining up to keep successful results; keep <= 0
// retains nothing, so every completed entry leaves before its waiters
// return and a later call starts afresh.
func New[K comparable, V any](keep int) *Group[K, V] {
	return &Group[K, V]{keep: keep, m: map[K]*call[V]{}}
}

// Do runs fn for key once per flight, shared by all waiters, and returns
// fn's value together with its error. A retained result is returned at
// once and becomes the most recently used. A caller whose ctx is already
// dead gets ctx.Err() without starting anything; one whose ctx dies while
// waiting gets ctx.Err() and leaves the flight, and the last to leave
// cancels fn's context and drops the entry, so a later caller starts a
// fresh execution instead of inheriting the cancellation.
func (g *Group[K, V]) Do(ctx context.Context, key K, fn func(context.Context) (V, error)) (V, error) {
	var zero V
	if err := ctx.Err(); err != nil {
		return zero, err
	}
	g.mu.Lock()
	c, ok := g.m[key]
	switch {
	case !ok:
		c = g.start(ctx, key, fn)
	case c.elem != nil:
		g.hits.Add(1)
		g.lru.MoveToFront(c.elem)
		g.mu.Unlock()
		return c.val, nil
	default:
		g.hits.Add(1)
	}
	c.waiters++
	g.mu.Unlock()

	select {
	case <-c.done:
		return c.val, c.err
	case <-ctx.Done():
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	c.waiters--
	select {
	case <-c.done: // finished anyway; completion already settled the entry
	default:
		if c.waiters == 0 {
			c.cancel()
			delete(g.m, key)
		}
	}
	return zero, ctx.Err()
}

// start (called under g.mu) registers a new flight for key and runs fn in
// its own goroutine, detached from ctx's cancellation but not its values.
func (g *Group[K, V]) start(ctx context.Context, key K, fn func(context.Context) (V, error)) *call[V] {
	cctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	c := &call[V]{done: make(chan struct{}), cancel: cancel}
	g.m[key] = c
	g.started.Add(1)
	go func() {
		defer cancel()
		v, err := fn(cctx)
		g.mu.Lock()
		defer g.mu.Unlock()
		c.val, c.err = v, err
		close(c.done)
		if g.m[key] != c {
			return // abandoned by its last waiter
		}
		if err != nil || g.keep <= 0 {
			delete(g.m, key)
			return
		}
		c.elem = g.lru.PushFront(key)
		if g.lru.Len() > g.keep {
			delete(g.m, g.lru.Remove(g.lru.Back()).(K))
		}
	}()
	return c
}

// Peek returns a retained result without touching recency. Executions
// still in flight are invisible to it.
func (g *Group[K, V]) Peek(key K) (V, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.m[key]; ok && c.elem != nil {
		return c.val, true
	}
	var zero V
	return zero, false
}

// Stats reports executions started and calls served by joining or
// retention.
func (g *Group[K, V]) Stats() (started, hits int64) {
	return g.started.Load(), g.hits.Load()
}
