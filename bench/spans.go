package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

// span is one bench-side interval around a call that crosses a layer
// boundary. Spans of one op share (Workload, Op); Parent is the index of
// the enclosing span in the trace, -1 at top level.
type span struct {
	Name       string `json:"name"`
	StartNS    int64  `json:"start_ns"`
	EndNS      int64  `json:"end_ns"`
	Parent     int    `json:"parent"`
	Workload   string `json:"workload"`
	Op         int    `json:"op"`
	AllocBytes uint64 `json:"alloc_bytes,omitempty"`
	Mallocs    uint64 `json:"mallocs,omitempty"`
}

// tracer records spans in memory during the traced pass and carries the
// obs collector handed to every API that accepts one. A nil *tracer is
// the untraced pass: every method is a no-op and collector() is nil, so
// workload code threads one pointer through and never branches on it.
// It is used from one goroutine only.
type tracer struct {
	c        *obs.Collector
	epoch    time.Time
	workload string
	op       int
	spans    []span
	stack    []int
}

func newTracer(workload string, epoch time.Time) *tracer {
	return &tracer{c: obs.New(), epoch: epoch, workload: workload}
}

// collector returns the obs collector of the traced pass, nil when
// untraced.
func (t *tracer) collector() *obs.Collector {
	if t == nil {
		return nil
	}
	return t.c
}

// openSpan is a started span; end closes it.
type openSpan struct {
	t   *tracer
	idx int
	ms  *runtime.MemStats
}

// start opens a span with runtime.MemStats deltas attached. Use it at
// coarse boundaries only: reading MemStats stops the world.
func (t *tracer) start(name string) *openSpan {
	if t == nil {
		return nil
	}
	ms := new(runtime.MemStats)
	runtime.ReadMemStats(ms)
	o := t.startLight(name)
	o.ms = ms
	return o
}

// startLight opens a span without memory deltas, for per-request spans.
func (t *tracer) startLight(name string) *openSpan {
	if t == nil {
		return nil
	}
	parent := -1
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	t.spans = append(t.spans, span{
		Name: name, Parent: parent, Workload: t.workload, Op: t.op,
		StartNS: time.Since(t.epoch).Nanoseconds(),
	})
	idx := len(t.spans) - 1
	t.stack = append(t.stack, idx)
	return &openSpan{t: t, idx: idx}
}

// end closes the span and returns its duration in seconds (0 untraced).
func (o *openSpan) end() float64 {
	if o == nil {
		return 0
	}
	s := &o.t.spans[o.idx]
	s.EndNS = time.Since(o.t.epoch).Nanoseconds()
	if o.ms != nil {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		s.AllocBytes = ms.TotalAlloc - o.ms.TotalAlloc
		s.Mallocs = ms.Mallocs - o.ms.Mallocs
	}
	if n := len(o.t.stack); n > 0 && o.t.stack[n-1] == o.idx {
		o.t.stack = o.t.stack[:n-1]
	}
	return float64(s.EndNS-s.StartNS) / 1e9
}

// total sums the durations, in seconds, of op's spans named name.
func (t *tracer) total(op int, name string) float64 {
	var ns int64
	for _, s := range t.spans {
		if s.Op == op && s.Name == name {
			ns += s.EndNS - s.StartNS
		}
	}
	return float64(ns) / 1e9
}

// counter reads one obs counter: 0 when nothing bumped it or c is nil.
func counter(c *obs.Collector, name string) uint64 { return c.Counter(name).Value() }

// layerOf names the layer a span belongs to: the part of its name before
// the first dot ("coll.measure" → "coll").
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// selfTimes returns per-layer self time in seconds over the given spans:
// each span's duration minus the part its child spans cover. The tracer
// is single-threaded, so siblings never overlap and the covered part is
// the sum of the children.
func selfTimes(spans []span) map[string]float64 {
	covered := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.EndNS - s.StartNS
		}
	}
	out := map[string]float64{}
	for i, s := range spans {
		out[layerOf(s.Name)] += float64(s.EndNS-s.StartNS-covered[i]) / 1e9
	}
	return out
}

// writeSummary prints one line of per-layer self time for a workload's
// traced spans, largest first.
func writeSummary(w io.Writer, workload string, spans []span) {
	self := selfTimes(spans)
	layers := make([]string, 0, len(self))
	var total float64
	for l, s := range self {
		layers = append(layers, l)
		total += s
	}
	sort.Slice(layers, func(i, j int) bool {
		if self[layers[i]] != self[layers[j]] {
			return self[layers[i]] > self[layers[j]]
		}
		return layers[i] < layers[j]
	})
	fmt.Fprintf(w, "summary %s: self time", workload)
	for _, l := range layers {
		fmt.Fprintf(w, " %s=%.4fs(%.0f%%)", l, self[l], 100*self[l]/total)
	}
	fmt.Fprintln(w)
}

// writeSpans writes the span list as one JSON array. It is called once,
// after every workload has finished: nothing is written during timing.
func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
