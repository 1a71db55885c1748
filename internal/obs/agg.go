package obs

import (
	"sync"
	"time"
)

// StageSummary is the per-span-name rollup the timings table renders:
// how often a stage ran and where its wall-clock and CPU time went.
type StageSummary struct {
	Name  string
	Count int
	Wall  time.Duration
	CPU   time.Duration
	Min   time.Duration
	Max   time.Duration
}

// Aggregator is an in-memory sink that rolls finished spans up into
// per-stage summaries without retaining the spans themselves, so it
// is safe to leave attached for the life of a long process. It
// ignores events.
type Aggregator struct {
	mu     sync.Mutex
	stages map[string]*StageSummary
	order  []string
}

// NewAggregator builds an empty aggregator.
func NewAggregator() *Aggregator {
	return &Aggregator{stages: make(map[string]*StageSummary)}
}

// WriteSpan folds one span into its stage summary.
func (a *Aggregator) WriteSpan(s SpanData) {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := a.stages[s.Name]
	if st == nil {
		st = &StageSummary{Name: s.Name, Min: s.Dur, Max: s.Dur}
		a.stages[s.Name] = st
		a.order = append(a.order, s.Name)
	}
	st.Count++
	st.Wall += s.Dur
	st.CPU += s.CPU
	if s.Dur < st.Min {
		st.Min = s.Dur
	}
	if s.Dur > st.Max {
		st.Max = s.Dur
	}
}

// WriteEvent discards the event.
func (a *Aggregator) WriteEvent(EventData) {}

// Summary returns the per-stage rollups in first-seen order.
func (a *Aggregator) Summary() []StageSummary {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]StageSummary, 0, len(a.order))
	for _, name := range a.order {
		out = append(out, *a.stages[name])
	}
	return out
}

// Collector is a sink that retains every span and event, for tests
// and for post-hoc analysis of short runs. Use Aggregator for
// anything long-lived.
type Collector struct {
	mu     sync.Mutex
	spans  []SpanData
	events []EventData
}

// NewCollector builds an empty collector.
func NewCollector() *Collector { return &Collector{} }

// WriteSpan retains the span.
func (c *Collector) WriteSpan(s SpanData) {
	c.mu.Lock()
	c.spans = append(c.spans, s)
	c.mu.Unlock()
}

// WriteEvent retains the event.
func (c *Collector) WriteEvent(e EventData) {
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}

// Trace snapshots the collected records as a Trace.
func (c *Collector) Trace() *Trace {
	c.mu.Lock()
	defer c.mu.Unlock()
	return &Trace{
		Spans:  append([]SpanData(nil), c.spans...),
		Events: append([]EventData(nil), c.events...),
	}
}

// Summarize rolls a span list up into per-stage summaries, first-seen
// order — the offline twin of the Aggregator sink.
func Summarize(spans []SpanData) []StageSummary {
	a := NewAggregator()
	for _, s := range spans {
		a.WriteSpan(s)
	}
	return a.Summary()
}

// Coverage measures how much of the root spans' wall-clock their
// direct children account for: Σ dur(children of any root-named
// span) / Σ dur(root-named spans). The boolean is false when the
// trace has no span named root. Values near 1 mean the stage spans
// explain essentially all of the pipeline's time.
func (t *Trace) Coverage(root string) (float64, bool) {
	rootIDs := make(map[uint64]bool)
	var rootSum time.Duration
	for _, s := range t.Spans {
		if s.Name == root {
			rootIDs[s.ID] = true
			rootSum += s.Dur
		}
	}
	if len(rootIDs) == 0 || rootSum == 0 {
		return 0, false
	}
	var childSum time.Duration
	for _, s := range t.Spans {
		if rootIDs[s.Parent] {
			childSum += s.Dur
		}
	}
	return float64(childSum) / float64(rootSum), true
}
