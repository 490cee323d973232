package flight

import (
	"context"
	"errors"
	"testing"
	"time"
)

var bg = context.Background()

type result struct {
	v   int
	err error
}

// async runs one Do in its own goroutine.
func async(g *Group[string, int], ctx context.Context, key string, fn func(context.Context) (int, error)) <-chan result {
	out := make(chan result, 1)
	go func() {
		v, err := g.Do(ctx, key, fn)
		out <- result{v, err}
	}()
	return out
}

// value is an fn that returns v at once.
func value(v int) func(context.Context) (int, error) {
	return func(context.Context) (int, error) { return v, nil }
}

// blocked is an fn that returns (v, err) once release closes, or fn's own
// context error if the flight is cancelled first.
func blocked(release <-chan struct{}, v int, err error) func(context.Context) (int, error) {
	return func(ctx context.Context) (int, error) {
		select {
		case <-release:
			return v, err
		case <-ctx.Done():
			return 0, ctx.Err()
		}
	}
}

// waitFor polls cond until it holds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// joined waits until the group has served hits calls by joining.
func joined(t *testing.T, g *Group[string, int], hits int64) {
	t.Helper()
	waitFor(t, "waiters to join", func() bool { _, h := g.Stats(); return h >= hits })
}

func wantStats(t *testing.T, g *Group[string, int], started, hits int64) {
	t.Helper()
	if s, h := g.Stats(); s != started || h != hits {
		t.Errorf("Stats = %d started / %d hits, want %d/%d", s, h, started, hits)
	}
}

func wantRetained(t *testing.T, g *Group[string, int], want map[string]bool) {
	t.Helper()
	for key, retained := range want {
		if _, ok := g.Peek(key); ok != retained {
			t.Errorf("Peek(%q) retained = %v, want %v", key, ok, retained)
		}
	}
}

func TestGroup(t *testing.T) {
	boom := errors.New("boom")
	cases := []struct {
		name string
		keep int
		run  func(t *testing.T, g *Group[string, int])
	}{
		{"concurrent callers share one execution", 0, func(t *testing.T, g *Group[string, int]) {
			const n = 8
			release := make(chan struct{})
			outs := make([]<-chan result, n)
			for i := range outs {
				outs[i] = async(g, bg, "k", blocked(release, 7, nil))
			}
			joined(t, g, n-1)
			close(release)
			for i, out := range outs {
				if r := <-out; r.v != 7 || r.err != nil {
					t.Errorf("caller %d got %d/%v, want 7/nil", i, r.v, r.err)
				}
			}
			wantStats(t, g, 1, n-1)
		}},
		{"one waiter's cancel does not fail the others", 0, func(t *testing.T, g *Group[string, int]) {
			release := make(chan struct{})
			ctxA, cancelA := context.WithCancel(bg)
			a := async(g, ctxA, "k", blocked(release, 7, nil))
			b := async(g, bg, "k", blocked(release, 7, nil))
			joined(t, g, 1)
			cancelA()
			if r := <-a; !errors.Is(r.err, context.Canceled) || r.v != 0 {
				t.Errorf("cancelled waiter got %d/%v, want 0/context.Canceled", r.v, r.err)
			}
			close(release)
			if r := <-b; r.v != 7 || r.err != nil {
				t.Errorf("surviving waiter got %d/%v, want 7/nil", r.v, r.err)
			}
			wantStats(t, g, 1, 1)
		}},
		{"last waiter's cancel cancels the execution", 0, func(t *testing.T, g *Group[string, int]) {
			cancelled := make(chan struct{})
			ctxA, cancelA := context.WithCancel(bg)
			ctxB, cancelB := context.WithCancel(bg)
			fn := func(ctx context.Context) (int, error) {
				<-ctx.Done()
				close(cancelled)
				return 0, ctx.Err()
			}
			a := async(g, ctxA, "k", fn)
			b := async(g, ctxB, "k", fn)
			joined(t, g, 1)
			cancelA()
			<-a
			select {
			case <-cancelled:
				t.Fatal("execution cancelled while a waiter remained")
			default:
			}
			cancelB()
			<-b
			select {
			case <-cancelled:
			case <-time.After(10 * time.Second):
				t.Fatal("last waiter left but the execution was never cancelled")
			}
		}},
		{"live caller never inherits an abandoned flight's cancellation", 0, func(t *testing.T, g *Group[string, int]) {
			// The abandoned execution keeps running until released, then
			// reports its cancellation, as real work would.
			release := make(chan struct{})
			slow := func(ctx context.Context) (int, error) {
				<-release
				return 0, ctx.Err()
			}
			ctxA, cancelA := context.WithCancel(bg)
			a := async(g, ctxA, "k", slow)
			waitFor(t, "the first execution to start", func() bool { s, _ := g.Stats(); return s == 1 })
			cancelA()
			<-a
			live := async(g, bg, "k", value(7))
			waitFor(t, "the live caller to start or join", func() bool { s, h := g.Stats(); return s+h == 2 })
			close(release)
			if r := <-live; r.v != 7 || r.err != nil {
				t.Errorf("live caller got %d/%v, want 7/nil", r.v, r.err)
			}
			wantStats(t, g, 2, 0)
		}},
		{"an error reaches every waiter with fn's value and is not retained", 2, func(t *testing.T, g *Group[string, int]) {
			release := make(chan struct{})
			a := async(g, bg, "k", blocked(release, 42, boom))
			b := async(g, bg, "k", blocked(release, 42, boom))
			joined(t, g, 1)
			close(release)
			for _, out := range []<-chan result{a, b} {
				if r := <-out; r.v != 42 || !errors.Is(r.err, boom) {
					t.Errorf("waiter got %d/%v, want 42/boom", r.v, r.err)
				}
			}
			wantRetained(t, g, map[string]bool{"k": false})
			if v, err := g.Do(bg, "k", value(9)); v != 9 || err != nil {
				t.Errorf("retry after a failure got %d/%v, want 9/nil", v, err)
			}
			wantStats(t, g, 2, 1)
		}},
		{"a dead context starts nothing", 2, func(t *testing.T, g *Group[string, int]) {
			dead, cancel := context.WithCancel(bg)
			cancel()
			ran := false
			if _, err := g.Do(dead, "k", func(context.Context) (int, error) { ran = true; return 1, nil }); !errors.Is(err, context.Canceled) {
				t.Errorf("dead caller got %v, want context.Canceled", err)
			}
			if ran {
				t.Error("a dead caller started an execution")
			}
			wantStats(t, g, 0, 0)
		}},
		{"keep 0 retains nothing", 0, func(t *testing.T, g *Group[string, int]) {
			for i := 1; i <= 2; i++ {
				if v, err := g.Do(bg, "k", value(i)); v != i || err != nil {
					t.Errorf("call %d got %d/%v", i, v, err)
				}
			}
			wantRetained(t, g, map[string]bool{"k": false})
			wantStats(t, g, 2, 0)
		}},
		{"keep 2 evicts the least recently used completed entry", 2, func(t *testing.T, g *Group[string, int]) {
			g.Do(bg, "a", value(1))
			g.Do(bg, "b", value(2))
			// A retained Do is a hit that refreshes recency: b is now oldest.
			if v, err := g.Do(bg, "a", value(-1)); v != 1 || err != nil {
				t.Errorf("retained a got %d/%v, want 1/nil", v, err)
			}
			release := make(chan struct{})
			c := async(g, bg, "c", blocked(release, 3, nil))
			waitFor(t, "c to start", func() bool { s, _ := g.Stats(); return s == 3 })
			g.Do(bg, "d", value(4))
			wantRetained(t, g, map[string]bool{"a": true, "b": false, "c": false, "d": true})
			// c survived d's eviction: a second caller still joins it.
			c2 := async(g, bg, "c", value(-1))
			joined(t, g, 2)
			close(release)
			for _, out := range []<-chan result{c, c2} {
				if r := <-out; r.v != 3 || r.err != nil {
					t.Errorf("c waiter got %d/%v, want 3/nil", r.v, r.err)
				}
			}
			wantRetained(t, g, map[string]bool{"a": false, "c": true, "d": true})
			wantStats(t, g, 4, 2)
		}},
		{"Peek sees only completed successes and keeps recency", 2, func(t *testing.T, g *Group[string, int]) {
			g.Do(bg, "a", value(1))
			g.Do(bg, "b", value(2))
			if v, ok := g.Peek("a"); !ok || v != 1 {
				t.Errorf("Peek(a) = %d/%v, want 1/true", v, ok)
			}
			// Peeking a did not refresh it, so c's arrival evicts a.
			g.Do(bg, "c", value(3))
			wantRetained(t, g, map[string]bool{"a": false, "b": true, "c": true})

			release := make(chan struct{})
			d := async(g, bg, "d", blocked(release, 4, nil))
			waitFor(t, "d to start", func() bool { s, _ := g.Stats(); return s == 4 })
			wantRetained(t, g, map[string]bool{"d": false})
			close(release)
			<-d
			g.Do(bg, "e", value(5))
			g.Do(bg, "e", value(-1))
			wantRetained(t, g, map[string]bool{"b": false, "c": false, "d": true, "e": true})
			g.Do(bg, "f", func(context.Context) (int, error) { return 6, boom })
			wantRetained(t, g, map[string]bool{"d": true, "e": true, "f": false})
			wantStats(t, g, 6, 1)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.run(t, New[string, int](tc.keep))
		})
	}
}
