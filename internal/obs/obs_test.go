package obs

import (
	"bytes"
	"expvar"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilSafety drives every public entry point through nil
// receivers: the disabled path must be inert, not a panic.
func TestNilSafety(t *testing.T) {
	var o *Observer
	if o.Active() {
		t.Fatal("nil observer active")
	}
	sp := o.StartSpan("x", KV("k", 1))
	sp.SetAttr("a", 2)
	sp.Event("e")
	child := sp.Child("y")
	child.End()
	sp.End()
	o.SetDetail(true)
	if o.Detail() {
		t.Fatal("nil observer has detail")
	}
	reg := o.Metrics()
	if reg != nil {
		t.Fatal("nil observer returned a registry")
	}
	reg.Counter("c").Add(1)
	reg.Gauge("g").Set(1)
	reg.Histogram("h", 1, 2).Observe(1)
	reg.CaptureMemStats()
	reg.PublishExpvar("nil-reg")
	if got := reg.Snapshot(); len(got) != 0 {
		t.Fatalf("nil registry snapshot = %v", got)
	}
}

func TestSpanNestingAndAggregator(t *testing.T) {
	agg := NewAggregator()
	o := New(agg)
	root := o.StartSpan("pipeline", KV("n", 13))
	for i := 0; i < 3; i++ {
		c := root.Child("stage")
		c.Event("tick", KV("i", i))
		time.Sleep(time.Millisecond)
		c.End()
	}
	root.End()

	sum := agg.Summary()
	if len(sum) != 2 {
		t.Fatalf("got %d stages, want 2: %+v", len(sum), sum)
	}
	if sum[0].Name != "stage" || sum[0].Count != 3 {
		t.Fatalf("stage summary wrong: %+v", sum[0])
	}
	if sum[1].Name != "pipeline" || sum[1].Count != 1 {
		t.Fatalf("pipeline summary wrong: %+v", sum[1])
	}
	if sum[0].Wall <= 0 || sum[0].Min <= 0 || sum[0].Max < sum[0].Min {
		t.Fatalf("implausible durations: %+v", sum[0])
	}
	if sum[1].Wall < sum[0].Wall {
		t.Fatalf("root wall %v < child wall %v", sum[1].Wall, sum[0].Wall)
	}
}

func TestCollectorCoverage(t *testing.T) {
	c := NewCollector()
	o := New(c)
	root := o.StartSpan("pipeline")
	start := time.Now()
	for time.Since(start) < 5*time.Millisecond {
		s := root.Child("work")
		time.Sleep(time.Millisecond)
		s.End()
	}
	root.End()
	tr := c.Trace()
	cov, ok := tr.Coverage("pipeline")
	if !ok {
		t.Fatal("no pipeline span found")
	}
	if cov < 0.5 || cov > 1.01 {
		t.Fatalf("coverage = %v, want ~1", cov)
	}
	if _, ok := tr.Coverage("nope"); ok {
		t.Fatal("coverage found a nonexistent root")
	}
}

func TestSummarize(t *testing.T) {
	spans := []SpanData{
		{ID: 1, Name: "a", Dur: 2 * time.Millisecond},
		{ID: 2, Name: "a", Dur: 4 * time.Millisecond},
		{ID: 3, Name: "b", Dur: time.Millisecond},
	}
	sum := Summarize(spans)
	if len(sum) != 2 || sum[0].Name != "a" || sum[0].Count != 2 ||
		sum[0].Wall != 6*time.Millisecond || sum[0].Min != 2*time.Millisecond ||
		sum[0].Max != 4*time.Millisecond {
		t.Fatalf("bad summary: %+v", sum)
	}
}

func TestDefaultObserver(t *testing.T) {
	if Default() != nil {
		t.Fatal("default observer should start nil")
	}
	o := New()
	prev := SetDefault(o)
	if prev != nil {
		t.Fatal("previous default not nil")
	}
	if Default() != o || Or(nil) != o {
		t.Fatal("default not installed")
	}
	o2 := New()
	if Or(o2) != o2 {
		t.Fatal("Or should prefer the explicit observer")
	}
	SetDefault(nil)
	if Default() != nil {
		t.Fatal("default observer not cleared")
	}
}

func TestMetricsRegistry(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("runs")
	c.Add(2)
	r.Counter("runs").Add(3)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	g := r.Gauge("qe")
	g.Set(1.5)
	g.Set(0.25)
	if g.Value() != 0.25 {
		t.Fatalf("gauge = %v", g.Value())
	}
	h := r.Histogram("imbalance", 1.1, 1.5, 2)
	for _, v := range []float64{1.0, 1.2, 1.2, 5} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("hist count = %d", h.Count())
	}
	if h.Sum() != 8.4 {
		t.Fatalf("hist sum = %v", h.Sum())
	}
	if h.Mean() != 2.1 {
		t.Fatalf("hist mean = %v", h.Mean())
	}
	snap := r.Snapshot()
	if snap["runs"].(int64) != 5 {
		t.Fatalf("snapshot counter = %v", snap["runs"])
	}
	hs := snap["imbalance"].(HistogramSnapshot)
	want := []uint64{1, 2, 0, 1}
	for i, w := range want {
		if hs.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (%+v)", i, hs.Counts[i], w, hs)
		}
	}
}

// TestHistogramConcurrent exercises the CAS sum under contention (and
// gives the race detector something to chew on).
func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("c", 10, 100)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(1)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 || h.Sum() != 8000 {
		t.Fatalf("count=%d sum=%v, want 8000", h.Count(), h.Sum())
	}
}

func TestCaptureMemStats(t *testing.T) {
	r := NewRegistry()
	r.CaptureMemStats()
	snap := r.Snapshot()
	for _, name := range []string{
		"mem.heap_alloc_bytes", "mem.total_alloc_bytes", "mem.sys_bytes",
		"mem.mallocs", "mem.num_gc", "mem.pause_total_ms",
	} {
		if _, ok := snap[name]; !ok {
			t.Fatalf("CaptureMemStats did not set %s (snapshot: %v)", name, snap)
		}
	}
	if r.Gauge("mem.total_alloc_bytes").Value() <= 0 {
		t.Fatal("memstats gauges not captured")
	}
	// A second capture must move the monotone figures forward, never
	// back: the gauges track the live runtime, not a stale copy.
	before := r.Gauge("mem.total_alloc_bytes").Value()
	_ = make([]byte, 1<<16)
	r.CaptureMemStats()
	if after := r.Gauge("mem.total_alloc_bytes").Value(); after < before {
		t.Fatalf("total_alloc_bytes went backwards: %v -> %v", before, after)
	}
	(*Registry)(nil).CaptureMemStats() // nil-safe
}

func TestPublishExpvarRebinds(t *testing.T) {
	r1 := NewRegistry()
	r1.Counter("x").Add(1)
	r1.PublishExpvar("obs-test")
	r2 := NewRegistry()
	r2.Counter("x").Add(7)
	r2.PublishExpvar("obs-test") // must not panic, must rebind
	if got := currentExpvarTarget("obs-test").Counter("x").Value(); got != 7 {
		t.Fatalf("expvar bound to stale registry (x=%d)", got)
	}
	// The published expvar.Func must follow the rebind too: /debug/vars
	// renders the *current* registry, not the one live at first publish.
	v := expvar.Get("obs-test")
	if v == nil {
		t.Fatal("expvar name not published")
	}
	if s := v.String(); !strings.Contains(s, `"x":7`) {
		t.Fatalf("expvar renders stale registry: %s", s)
	}
	// Mutations after the swap are visible without re-publishing.
	r2.Counter("x").Add(1)
	if s := v.String(); !strings.Contains(s, `"x":8`) {
		t.Fatalf("expvar not live after rebind: %s", s)
	}
}

func TestJSONLRoundTripAndValidate(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	o := New(sink)
	root := o.StartSpan("pipeline", KV("workloads", 13))
	child := root.Child("cluster")
	child.Event("merge", KV("distance", 1.25))
	child.End()
	root.End()
	sink.WriteEvent(EventData{Name: "free-standing", Time: time.Now()})
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	stats, err := ValidateTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("trace does not validate: %v", err)
	}
	if stats.Spans != 2 || stats.Events != 2 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.Header.Format != TraceFormat || stats.Header.Version == "" {
		t.Fatalf("header = %+v", stats.Header)
	}

	tr, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Spans) != 2 || len(tr.Events) != 2 {
		t.Fatalf("trace = %d spans / %d events", len(tr.Spans), len(tr.Events))
	}
	// Children close first, so the cluster span precedes the root.
	if tr.Spans[0].Name != "cluster" || tr.Spans[1].Name != "pipeline" {
		t.Fatalf("span order: %q, %q", tr.Spans[0].Name, tr.Spans[1].Name)
	}
	if tr.Spans[0].Parent != tr.Spans[1].ID {
		t.Fatal("child does not reference root")
	}
}

func TestValidateTraceRejections(t *testing.T) {
	header := `{"type":"header","format":"hmeans-trace/1","version":"v","go":"go1.22","created":"2026-01-01T00:00:00Z"}`
	span := `{"type":"span","id":1,"name":"s","start":"2026-01-01T00:00:00Z","dur_ns":5}`
	cases := map[string]string{
		"empty":            "",
		"no header":        span,
		"bad format":       `{"type":"header","format":"other/9","version":"v"}` + "\n" + span,
		"no version":       `{"type":"header","format":"hmeans-trace/1"}` + "\n" + span,
		"unknown type":     header + "\n" + `{"type":"wat"}`,
		"span id 0":        header + "\n" + `{"type":"span","name":"s","start":"2026-01-01T00:00:00Z"}`,
		"dup id":           header + "\n" + span + "\n" + span,
		"unnamed span":     header + "\n" + `{"type":"span","id":2,"start":"2026-01-01T00:00:00Z"}`,
		"negative dur":     header + "\n" + `{"type":"span","id":2,"name":"s","start":"2026-01-01T00:00:00Z","dur_ns":-1}`,
		"bad time":         header + "\n" + `{"type":"span","id":2,"name":"s","start":"yesterday"}`,
		"dangling parent":  header + "\n" + `{"type":"span","id":2,"parent":99,"name":"s","start":"2026-01-01T00:00:00Z"}`,
		"dangling event":   header + "\n" + `{"type":"event","span":42,"name":"e","time":"2026-01-01T00:00:00Z"}`,
		"unnamed event":    header + "\n" + `{"type":"event","time":"2026-01-01T00:00:00Z"}`,
		"not json":         header + "\n" + "garbage",
		"header not first": span + "\n" + header,
	}
	for name, in := range cases {
		if _, err := ValidateTrace(strings.NewReader(in)); err == nil {
			t.Errorf("%s: validated but should not", name)
		}
	}
	ok := header + "\n" + span + "\n" + `{"type":"event","span":1,"name":"e","time":"2026-01-01T00:00:00Z"}`
	if _, err := ValidateTrace(strings.NewReader(ok)); err != nil {
		t.Errorf("valid trace rejected: %v", err)
	}
}

func TestVersionNonEmpty(t *testing.T) {
	v := Version()
	if v == "" || !strings.Contains(v, "go1") {
		t.Fatalf("implausible version %q", v)
	}
}

func TestProcessCPUTimeMonotonic(t *testing.T) {
	a := processCPUTime()
	x := 0.0
	for i := 0; i < 1e6; i++ {
		x += float64(i)
	}
	_ = x
	if b := processCPUTime(); b < a {
		t.Fatalf("cpu time went backwards: %v -> %v", a, b)
	}
}
