package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// The benchmark's own tracer. A span is recorded around each call the
// benchmark makes into a layer; spans of one op share an op id and hang
// off that op's root span. Everything stays in memory until the run
// ends. A nil *tracer records nothing, so untraced code paths call the
// same methods.

type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"` // index of the parent span, -1 for an op root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// opTimes holds a run's op wall times, split into plain ops and ops
// that recorded spans.
type opTimes struct{ plain, traced []float64 }

func (t *opTimes) add(traced bool, seconds float64) {
	if traced {
		t.traced = append(t.traced, seconds)
	} else {
		t.plain = append(t.plain, seconds)
	}
}

// report sets the traced run's overhead and op-time metrics: the
// median traced op minus the median plain op, and the plain median
// under name (scaled by unit).
func (t *opTimes) report(o *outcome, name string, unit float64) {
	o.layer[name] = median(t.plain) * unit
	o.layer["trace.overhead_ms"] = (median(t.traced) - median(t.plain)) * 1000
}

// traces reports whether op i of the run records spans. A traced run
// alternates plain and traced ops, so their medians give the tracing
// overhead; an untraced run records none.
func (r *run) traces(i int) bool { return r.tr != nil && i%2 == 1 }

// beginOp opens the root span of a new op and returns its span id.
func (t *tracer) beginOp(name string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	t.ops++
	op := t.ops
	t.mu.Unlock()
	return t.begin(name, -1, op)
}

func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if parent >= 0 {
		op = t.spans[parent].Op
	}
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: now, End: -1})
	return len(t.spans) - 1
}

// child opens a span under parent (a no-op when parent is -1).
func (t *tracer) child(parent int, name string) int {
	if t == nil || parent < 0 {
		return -1
	}
	return t.begin(name, parent, 0)
}

// end closes span id and returns its duration in seconds.
func (t *tracer) end(id int) float64 {
	if t == nil || id < 0 {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	return float64(now-t.spans[id].Start) / 1e9
}

// around records fn as a child span of parent and returns its duration
// in seconds. Without a tracer it still times fn.
func (t *tracer) around(parent int, name string, fn func()) float64 {
	if t == nil || parent < 0 {
		t0 := time.Now()
		fn()
		return time.Since(t0).Seconds()
	}
	id := t.child(parent, name)
	fn()
	return t.end(id)
}

// summarize reports, per span name, the median over ops of the per-op
// self time (span time minus the time its children cover) as the layer
// metric <name>_s; trace.unspanned_s is the median self time of the
// roots named "op" — op wall time no layer span accounts for.
func (t *tracer) summarize(o *outcome) {
	t.mu.Lock()
	defer t.mu.Unlock()
	childTime := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			childTime[s.Parent] += s.End - s.Start
		}
	}
	perOp := map[string]map[int]float64{}
	var unspanned []float64
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		self := float64(s.End-s.Start-childTime[i]) / 1e9
		if s.Parent < 0 {
			if s.Name == "op" {
				unspanned = append(unspanned, self)
			}
			continue
		}
		if perOp[s.Name] == nil {
			perOp[s.Name] = map[int]float64{}
		}
		perOp[s.Name][s.Op] += self
	}
	for name, byOp := range perOp {
		vals := make([]float64, 0, len(byOp))
		for _, v := range byOp {
			vals = append(vals, v)
		}
		o.layer[name+"_s"] = median(vals)
	}
	o.layer["trace.unspanned_s"] = median(unspanned)
}

// write stores every span as JSON at path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
