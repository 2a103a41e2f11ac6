package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// maxKeptSpans bounds the spans a traced run keeps in memory; later
// spans still count towards self time but are not written out.
const maxKeptSpans = 200_000

// tracer keeps the spans of a traced run in memory. Each root span is
// one request (or one direct layer call) with its own trace ID; spans
// the program records under the same context join it as children.
type tracer struct {
	mu    sync.Mutex
	spans []obs.Span
	self  map[string]*selfTime
	ids   atomic.Uint64 // trace IDs: a counter is unique within the run
}

// selfTime accumulates one span name: how many, their total duration,
// and the part of it not covered by child spans.
type selfTime struct {
	name        string
	n           int
	total, self time.Duration
}

type rootSpan struct {
	span *obs.Span
	coll *obs.Collector
}

func newTracer() *tracer { return &tracer{self: map[string]*selfTime{}} }

// begin starts a root span under a fresh trace ID; spans started from
// the returned context are collected with it.
func (t *tracer) begin(ctx context.Context, name string) (context.Context, *rootSpan) {
	coll := &obs.Collector{}
	id := strconv.FormatUint(t.ids.Add(1), 16)
	ctx = obs.WithCollector(obs.WithTrace(ctx, id), coll)
	ctx, span := obs.StartSpan(ctx, name)
	return ctx, &rootSpan{span: span, coll: coll}
}

// end closes the root span and folds the request's spans into the
// per-name self times.
func (t *tracer) end(r *rootSpan) {
	r.span.End()
	spans := r.coll.Spans()
	children := map[uint64][]obs.Span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range spans {
		st := t.self[s.Name]
		if st == nil {
			st = &selfTime{name: s.Name}
			t.self[s.Name] = st
		}
		st.n++
		st.total += s.Duration
		st.self += s.Duration - covered(s, children[s.ID])
	}
	if len(t.spans)+len(spans) <= maxKeptSpans {
		t.spans = append(t.spans, spans...)
	}
}

// covered is how much of the parent's interval its children cover,
// overlapping children counted once.
func covered(parent obs.Span, kids []obs.Span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ a, b time.Time }
	end := parent.Start.Add(parent.Duration)
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := k.Start, k.Start.Add(k.Duration)
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(end) {
			b = end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var sum time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			sum += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		sum += cur.b.Sub(cur.a)
	}
	return sum
}

// selfTimes lists the per-name totals, largest self time first.
func (t *tracer) selfTimes() []selfTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]selfTime, 0, len(t.self))
	for _, st := range t.self {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

// write dumps the kept spans as one JSON array.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	n := len(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: wrote %d spans to %s\n", n, path)
	return nil
}
