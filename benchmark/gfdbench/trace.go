package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval at a layer boundary. Spans are recorded from
// the benchmark's side of each call into a layer — calls the engine makes
// internally (core into match, say) are invisible from here, which is why
// the standalone layer probes exist as separate root spans tagged "probe".
type span struct {
	name   string
	op     int // operation id shared by every span of one operation
	parent int // index into tracer.spans, -1 for a root
	start  time.Duration
	end    time.Duration
	probe  bool
}

// tracer keeps spans in memory and writes them once, at exit. A nil tracer
// records nothing: the same operation code runs traced and untraced, and the
// difference between the two is the tracing overhead.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
	ops   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span nested under the innermost open one and returns the
// function that closes it. A span opened with no parent starts a new
// operation id.
func (t *tracer) begin(name string) func() {
	if t == nil {
		return func() {}
	}
	parent, op := -1, t.ops
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
		op = t.spans[parent].op
	} else {
		t.ops++
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{name: name, op: op, parent: parent, start: time.Since(t.t0)})
	t.stack = append(t.stack, id)
	return func() {
		t.spans[id].end = time.Since(t.t0)
		t.stack = t.stack[:len(t.stack)-1]
	}
}

// probe records an already-measured standalone layer probe as a root span.
func (t *tracer) probe(name string, d time.Duration) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	t.spans = append(t.spans, span{name: name, op: t.ops, parent: -1, start: now - d, end: now, probe: true})
	t.ops++
}

// selfTimes returns each span's duration minus the part of it its direct
// children cover. Over one operation's tree the self times sum to the root
// span's duration.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// selfByName sums self time per span name over the operation spans (probes
// excluded): where the traced operations spent their time, layer by layer.
func (t *tracer) selfByName() map[string]time.Duration {
	out := map[string]time.Duration{}
	for i, d := range t.selfTimes() {
		if !t.spans[i].probe {
			out[t.spans[i].name] += d
		}
	}
	return out
}

// traceEvent is one Chrome trace-event ("X" = complete event; ts and dur in
// microseconds). The operation id is the tid, so each operation renders as
// its own lane with its layer spans nested inside.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

func (t *tracer) events() []traceEvent {
	self := t.selfTimes()
	evs := make([]traceEvent, len(t.spans))
	for i, s := range t.spans {
		cat := "op"
		if s.probe {
			cat = "probe"
		}
		evs[i] = traceEvent{
			Name: s.name, Cat: cat, Ph: "X",
			Ts: micros(s.start), Dur: micros(s.end - s.start),
			Pid: 1, Tid: s.op,
			Args: map[string]any{"id": i, "parent": s.parent, "self_us": micros(self[i])},
		}
	}
	return evs
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"traceEvents": t.events(), "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
