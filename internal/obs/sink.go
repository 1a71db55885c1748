package obs

import "time"

// SpanData is a finished span as delivered to sinks.
type SpanData struct {
	// ID is unique within one Observer; Parent is the enclosing
	// span's ID, 0 for roots.
	ID, Parent uint64
	Name       string
	Start      time.Time
	// Dur is the span's wall-clock duration.
	Dur time.Duration
	// CPU is the process-wide CPU time (user+system, all threads)
	// consumed while the span was open, not this span's own CPU:
	// concurrent spans are charged for each other's work. Zero on
	// platforms without rusage support.
	CPU   time.Duration
	Attrs []Attr
}

// EventData is a point-in-time record (an epoch, a merge, one
// measured workload) as delivered to sinks.
type EventData struct {
	// Span is the enclosing span's ID, 0 when the event is
	// free-standing.
	Span  uint64
	Name  string
	Time  time.Time
	Attrs []Attr
}

// Sink consumes finished spans and events. Implementations must be
// safe for concurrent use: spans end on whatever goroutine ran the
// instrumented stage.
type Sink interface {
	WriteSpan(SpanData)
	WriteEvent(EventData)
}

// NopSink discards everything. It is the sink New installs when
// given none, and the configuration the overhead benchmarks measure:
// instrumentation runs end to end but every record is dropped here.
type NopSink struct{}

// WriteSpan discards the span.
func (NopSink) WriteSpan(SpanData) {}

// WriteEvent discards the event.
func (NopSink) WriteEvent(EventData) {}

// MultiSink fans every record out to each member in order.
type MultiSink []Sink

// WriteSpan forwards the span to every member.
func (m MultiSink) WriteSpan(s SpanData) {
	for _, sk := range m {
		sk.WriteSpan(s)
	}
}

// WriteEvent forwards the event to every member.
func (m MultiSink) WriteEvent(e EventData) {
	for _, sk := range m {
		sk.WriteEvent(e)
	}
}
