package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one recorded interval at a layer boundary. Spans of one request
// share Req; Parent is the span that caused this one (0 for a root).
// Replay spans re-run a layer's public call on the request's own inputs
// after the request finished, for layers with no hook inside a live
// request (fitting, bootstrap, store, encoding, program building).
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent,omitempty"`
	Req     int64  `json:"req"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Replay  bool   `json:"replay,omitempty"`
}

// tracer keeps spans in memory; dump writes them out when the run ends. A
// nil *tracer records nothing, so untraced windows pay one nil check per
// boundary.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64
	reqID  atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// openSpan is a started, not yet ended span.
type openSpan struct {
	tr *tracer
	s  span
}

// newReq allocates a request id (0 on a nil tracer).
func (t *tracer) newReq() int64 {
	if t == nil {
		return 0
	}
	return t.reqID.Add(1)
}

func (t *tracer) start(name string, parent, req int64) *openSpan {
	if t == nil {
		return nil
	}
	return &openSpan{tr: t, s: span{ID: t.nextID.Add(1), Parent: parent, Req: req,
		Name: name, StartNs: time.Since(t.epoch).Nanoseconds()}}
}

func (t *tracer) replay(name string, parent, req int64) *openSpan {
	sp := t.start(name, parent, req)
	if sp != nil {
		sp.s.Replay = true
	}
	return sp
}

func (o *openSpan) id() int64 {
	if o == nil {
		return 0
	}
	return o.s.ID
}

// end closes the span and returns its duration.
func (o *openSpan) end() time.Duration {
	if o == nil {
		return 0
	}
	o.s.EndNs = time.Since(o.tr.epoch).Nanoseconds()
	o.tr.mu.Lock()
	o.tr.spans = append(o.tr.spans, o.s)
	o.tr.mu.Unlock()
	return time.Duration(o.s.EndNs - o.s.StartNs)
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// durationsMs returns the durations of every span with this name, in ms.
func (t *tracer) durationsMs(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.EndNs-s.StartNs)/1e6)
		}
	}
	return out
}

// layerTime is one span name's aggregate: how many spans, their summed
// duration, and their summed self time (duration minus the part of the
// interval that child spans cover).
type layerTime struct {
	name            string
	count           int
	totalMs, selfMs float64
}

func (t *tracer) selfTimes() []layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	agg := map[string]*layerTime{}
	for _, s := range t.spans {
		l := agg[s.Name]
		if l == nil {
			l = &layerTime{name: s.Name}
			agg[s.Name] = l
		}
		dur := s.EndNs - s.StartNs
		l.count++
		l.totalMs += float64(dur) / 1e6
		l.selfMs += float64(dur-covered(s, children[s.ID])) / 1e6
	}
	out := make([]layerTime, 0, len(agg))
	for _, l := range agg {
		out = append(out, *l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// covered returns how much of parent's interval the union of the children's
// intervals covers (children may overlap: simulations run in parallel).
func covered(parent span, kids []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.StartNs, parent.StartNs), min(k.EndNs, parent.EndNs)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// dump writes every recorded span as one JSON document.
func (t *tracer) dump(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}
