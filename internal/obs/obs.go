// Package obs is the pipeline's observability layer: hierarchical
// wall-clock/CPU spans with pluggable sinks, a lock-cheap metrics
// registry (counters, gauges, fixed-bucket histograms), and live
// introspection endpoints (pprof, expvar, streaming traces).
//
// The package is built around one invariant: a nil *Observer — and a
// nil *Span, *Counter, *Gauge or *Histogram — is a valid, inert
// receiver for every method. Instrumented code therefore never
// branches on "is observability on"; it calls straight through, and
// the disabled path costs a nil check. Hot kernels that would pay
// even for that (per-sample accumulation, per-step gauges) gate on
// Observer.Active instead.
//
// obs depends only on the standard library, so every other package in
// the module may import it without cycles.
package obs

import (
	"sync/atomic"
	"time"
)

// Observer is the root handle instrumented code records against. The
// zero value is unusable; construct with New. A nil *Observer is the
// canonical "observability off" value: all methods no-op.
type Observer struct {
	sink   Sink
	live   *LiveSink
	reg    *Registry
	detail atomic.Bool
	seq    atomic.Uint64
}

// New builds an Observer writing spans and events to the given sinks.
// With no sinks the Observer is a pure no-op recorder: spans are
// created and timed, then discarded — this is the configuration the
// overhead benchmarks compare against the uninstrumented path. With
// several sinks every record fans out to each in order.
func New(sinks ...Sink) *Observer {
	o := &Observer{reg: NewRegistry()}
	switch len(sinks) {
	case 0:
		o.sink = NopSink{}
	case 1:
		o.sink = sinks[0]
	default:
		o.sink = MultiSink(sinks)
	}
	// Remember the first live sink so the HTTP /trace endpoint can
	// find its subscription hub.
	for _, s := range flatten(o.sink) {
		if l, ok := s.(*LiveSink); ok {
			o.live = l
			break
		}
	}
	return o
}

// flatten expands MultiSink nesting one level deep (the only nesting
// New produces).
func flatten(s Sink) []Sink {
	if m, ok := s.(MultiSink); ok {
		return m
	}
	return []Sink{s}
}

// Active reports whether recording is on. It is the gate hot loops
// use before doing per-item bookkeeping (timestamps, distance
// accumulation) whose cost exists even when the result would be
// thrown away.
func (o *Observer) Active() bool { return o != nil }

// Metrics returns the observer's registry, or nil on a nil observer
// (registry handles are nil-safe too, so the chain stays inert).
func (o *Observer) Metrics() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// SetDetail toggles high-volume instrumentation — per-merge linkage
// events and other O(n)-per-stage records that are too costly to
// leave on by default.
func (o *Observer) SetDetail(on bool) {
	if o != nil {
		o.detail.Store(on)
	}
}

// Detail reports whether high-volume instrumentation is enabled.
func (o *Observer) Detail() bool { return o != nil && o.detail.Load() }

// Attr is one key/value annotation on a span or event.
type Attr struct {
	Key string
	Val any
}

// KV builds an Attr.
func KV(key string, val any) Attr { return Attr{Key: key, Val: val} }

// Span is one timed region of the pipeline. Spans nest (Child) and
// may be carried across goroutines, but each span's methods must be
// called from one goroutine at a time; sinks are safe for concurrent
// spans.
type Span struct {
	o      *Observer
	id     uint64
	parent uint64
	name   string
	start  time.Time
	cpu    time.Duration
	attrs  []Attr
}

// StartSpan opens a root span. On a nil observer it returns nil,
// which every Span method accepts.
func (o *Observer) StartSpan(name string, attrs ...Attr) *Span {
	return o.startSpan(name, 0, attrs)
}

func (o *Observer) startSpan(name string, parent uint64, attrs []Attr) *Span {
	if o == nil {
		return nil
	}
	return &Span{
		o:      o,
		id:     o.seq.Add(1),
		parent: parent,
		name:   name,
		start:  time.Now(),
		cpu:    processCPUTime(),
		attrs:  attrs,
	}
}

// Child opens a nested span.
func (s *Span) Child(name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	return s.o.startSpan(name, s.id, attrs)
}

// SetAttr appends an annotation to the span.
func (s *Span) SetAttr(key string, val any) {
	if s != nil {
		s.attrs = append(s.attrs, Attr{Key: key, Val: val})
	}
}

// Event records a point-in-time event inside the span (an epoch, a
// merge, one measured workload).
func (s *Span) Event(name string, attrs ...Attr) {
	if s == nil {
		return
	}
	s.o.sink.WriteEvent(EventData{Span: s.id, Name: name, Time: time.Now(), Attrs: attrs})
}

// End closes the span and hands it to the sink. CPU is the
// process-wide CPU time consumed while the span was open: every
// goroutine's work is charged, so a daemon serving requests side by
// side charges each request span for its neighbours' CPU too.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.o.sink.WriteSpan(SpanData{
		ID:     s.id,
		Parent: s.parent,
		Name:   s.name,
		Start:  s.start,
		Dur:    time.Since(s.start),
		CPU:    processCPUTime() - s.cpu,
		Attrs:  s.attrs,
	})
}

// defaultObs is the process-wide observer used by packages whose
// call paths carry no configuration struct (internal/simbench's
// measurement campaigns) and as the fallback for configs whose Obs
// field is nil.
var defaultObs atomic.Pointer[Observer]

// SetDefault installs o as the process-default observer and returns
// the previous value (so callers can restore it). Passing nil turns
// default instrumentation off.
func SetDefault(o *Observer) *Observer {
	if o == nil {
		return defaultObs.Swap(nil)
	}
	return defaultObs.Swap(o)
}

// Default returns the process-default observer, which is nil until
// SetDefault installs one.
func Default() *Observer { return defaultObs.Load() }

// Or returns o when non-nil and the process default otherwise; it is
// the one-liner config consumers use to resolve an optional Obs
// field.
func Or(o *Observer) *Observer {
	if o != nil {
		return o
	}
	return Default()
}
