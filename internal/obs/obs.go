// Package obs is the repo's lightweight observability layer: spans,
// events, and monotonic counters recorded into an in-memory Collector
// and exported as NDJSON. It is dependency-free and built for two
// regimes:
//
//   - Disabled (nil *Collector): every entry point is nil-safe and the
//     fast path — a counter bump in the packet simulator, an event in a
//     prediction — costs one nil check and zero allocations. Attributes
//     are a concrete struct (no interface boxing) and recording copies
//     them, so the variadic argument never escapes.
//   - Enabled: events carry a process-wide sequence number and are
//     deterministic under fixed seeds — no wall-clock values appear in
//     any recorded payload except span durations, and even those can be
//     pinned by installing a fake clock with SetClock (golden tests do).
//
// The NDJSON schema is documented in docs/OBSERVABILITY.md and enforced
// by ValidateNDJSON, which cmd/tracecheck and CI run over real traces.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Attr kinds. A concrete tagged union keeps attribute construction
// allocation-free, which is what makes the disabled fast path free.
const (
	kindInt = iota
	kindFloat
	kindStr
)

// Attr is one typed key/value attribute attached to a span or event.
// Construct attrs with Int, I64, F64, or Str.
type Attr struct {
	Key  string
	kind uint8
	num  int64
	f    float64
	str  string
}

// Int builds an integer attribute.
func Int(key string, v int) Attr { return Attr{Key: key, kind: kindInt, num: int64(v)} }

// I64 builds an int64 attribute.
func I64(key string, v int64) Attr { return Attr{Key: key, kind: kindInt, num: v} }

// F64 builds a float64 attribute.
func F64(key string, v float64) Attr { return Attr{Key: key, kind: kindFloat, f: v} }

// Str builds a string attribute.
func Str(key, v string) Attr { return Attr{Key: key, kind: kindStr, str: v} }

// Event is one recorded trace entry. Type is one of "span.start",
// "span.end", or "event"; WriteNDJSON additionally emits synthetic
// "counter" lines from the counter table. Span is the id of the event's
// own span (span.start/span.end) or of the enclosing span (plain
// events; 0 means top level). Parent is the enclosing span of a
// span.start. DurNS is the span duration in nanoseconds, present only
// on span.end — the single clock-derived field in the schema.
type Event struct {
	Seq    int64
	Type   string
	Name   string
	Span   int64
	Parent int64
	DurNS  int64
	Attrs  []Attr
}

// Counter is a monotonic counter handle. Handles are interned per name
// by Collector.Counter, so hot paths resolve the name once and then pay
// a single atomic add per increment. A nil handle ignores Add, which is
// how disabled call sites stay free.
type Counter struct {
	name string
	v    atomic.Uint64
}

// Add increments the counter. Safe on a nil receiver (no-op) and for
// concurrent use.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count. Safe on a nil receiver (zero).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Collector accumulates events and counters. The zero value is not
// used; construct with New. A nil *Collector is the disabled state: all
// methods are nil-safe no-ops, so callers thread one pointer through
// and never branch beyond the nil check the methods already do.
type Collector struct {
	mu       sync.Mutex
	clock    func() int64 // monotonic nanoseconds; only span durations consume it
	start    time.Time
	seq      int64
	spans    int64
	events   []Event
	counters map[string]*Counter
}

// New creates an enabled collector. The default clock is the process
// monotonic clock and feeds only span durations; install a deterministic
// clock with SetClock when traces must be byte-stable.
func New() *Collector {
	c := &Collector{start: time.Now(), counters: make(map[string]*Counter)}
	c.clock = func() int64 { return int64(time.Since(c.start)) }
	return c
}

// SetClock replaces the duration clock with fn, which must return
// monotonically non-decreasing nanoseconds. Tests install a stepping
// fake so span durations — the one wall-clock-derived field — become
// deterministic.
func (c *Collector) SetClock(fn func() int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.clock = fn
	c.mu.Unlock()
}

// record appends an event under the lock, copying attrs so the caller's
// variadic slice never escapes (keeping disabled call sites
// allocation-free and enabled ones safe against reuse).
func (c *Collector) record(typ, name string, span, parent, durNS int64, attrs []Attr) {
	c.mu.Lock()
	c.seq++
	ev := Event{Seq: c.seq, Type: typ, Name: name, Span: span, Parent: parent, DurNS: durNS}
	if len(attrs) > 0 {
		ev.Attrs = append([]Attr(nil), attrs...)
	}
	c.events = append(c.events, ev)
	c.mu.Unlock()
}

// Event records a top-level event (no enclosing span).
func (c *Collector) Event(name string, attrs ...Attr) {
	if c == nil {
		return
	}
	c.record("event", name, 0, 0, 0, attrs)
}

// Span opens a top-level span and records its span.start event.
func (c *Collector) Span(name string, attrs ...Attr) *Span {
	return c.newSpan(name, 0, attrs)
}

func (c *Collector) newSpan(name string, parent int64, attrs []Attr) *Span {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	c.spans++
	id := c.spans
	start := c.clock()
	c.mu.Unlock()
	c.record("span.start", name, id, parent, 0, attrs)
	return &Span{c: c, id: id, name: name, startNS: start}
}

// Counter returns the interned counter handle for name, creating it on
// first use. On a nil collector it returns nil, which Add ignores.
func (c *Collector) Counter(name string) *Counter {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	ct := c.counters[name]
	if ct == nil {
		ct = &Counter{name: name}
		c.counters[name] = ct
	}
	c.mu.Unlock()
	return ct
}

// Add increments the named counter by n — the convenience form of
// Counter(name).Add(n) for cold paths.
func (c *Collector) Add(name string, n uint64) {
	if c == nil {
		return
	}
	c.Counter(name).Add(n)
}

// Counters returns a name-sorted snapshot of all counter values.
func (c *Collector) Counters() []CounterValue {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	out := make([]CounterValue, 0, len(c.counters))
	for name, ct := range c.counters {
		out = append(out, CounterValue{Name: name, Value: ct.Value()})
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// CounterValue is one entry of a Counters snapshot.
type CounterValue struct {
	Name  string
	Value uint64
}

// Events returns a snapshot of the recorded events in sequence order.
func (c *Collector) Events() []Event {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	out := append([]Event(nil), c.events...)
	c.mu.Unlock()
	return out
}

// Reset discards all recorded events and zeroes every counter, keeping
// interned handles valid. Benchmarks call it between iterations so the
// event buffer does not grow with b.N.
func (c *Collector) Reset() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.events = c.events[:0]
	c.seq = 0
	c.spans = 0
	for _, ct := range c.counters {
		ct.v.Store(0)
	}
	c.mu.Unlock()
}

// Span is an open span. Methods are nil-safe, so code holding a span
// from a disabled collector needs no guards.
type Span struct {
	c       *Collector
	id      int64
	name    string
	startNS int64
	ended   atomic.Bool
}

// Span opens a child span nested under s.
func (s *Span) Span(name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	return s.c.newSpan(name, s.id, attrs)
}

// Event records an event inside s.
func (s *Span) Event(name string, attrs ...Attr) {
	if s == nil {
		return
	}
	s.c.record("event", name, s.id, 0, 0, attrs)
}

// End closes the span, recording its span.end event with the duration
// since the span opened. Extra attrs ride on the end event (fit
// results, totals). End is idempotent; only the first call records.
func (s *Span) End(attrs ...Attr) {
	if s == nil {
		return
	}
	if s.ended.Swap(true) {
		return
	}
	s.c.mu.Lock()
	dur := s.c.clock() - s.startNS
	s.c.mu.Unlock()
	if dur < 0 {
		dur = 0
	}
	s.c.record("span.end", s.name, s.id, 0, dur, attrs)
}
