package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// span is one call into a layer's public function, timed by the
// benchmark around the call. Parent links a call to the call whose
// work it replays: a parent's self time is its duration minus the
// durations of its children.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Allocs uint64 `json:"allocs"`
	Bytes  uint64 `json:"bytes"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer records spans in memory; they are written out when the run
// ends. Calls run one at a time, so the heap counters read around a
// call count that call's allocations exactly. Each call starts after a
// completed garbage collection, so a call does not pay GC assists for
// the garbage of the call before it: a composite call and the replay of
// the work inside it then run under the same GC conditions, and their
// difference is the composite's own work. The collection and the
// counters are outside the timed interval, so their cost lands in no
// span.
type tracer struct {
	epoch time.Time
	req   int
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// do times fn as a call of the named layer metric and returns the
// span's ID, the parent for replays of the work fn did inside.
func (t *tracer) do(parent int, name string, fn func() error) (int, error) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	err := fn()
	t1 := time.Now()
	runtime.ReadMemStats(&m1)
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Req: t.req, Name: name,
		Start: int64(t0.Sub(t.epoch)), End: int64(t1.Sub(t.epoch)),
		Allocs: m1.Mallocs - m0.Mallocs, Bytes: m1.TotalAlloc - m0.TotalAlloc,
	})
	if err != nil {
		return id, fmt.Errorf("%s: %w", name, err)
	}
	return id, nil
}

// self is one span's own share: its duration and allocations minus
// those of its children.
type self struct {
	dur           time.Duration
	allocs, bytes int64
}

// selfTimes returns every span's self share, indexed like spans.
func selfTimes(spans []span) []self {
	idx := make(map[int]int, len(spans))
	out := make([]self, len(spans))
	for i, s := range spans {
		idx[s.ID] = i
		out[i] = self{dur: s.dur(), allocs: int64(s.Allocs), bytes: int64(s.Bytes)}
	}
	for _, s := range spans {
		if p, ok := idx[s.Parent]; ok && s.Parent != 0 {
			out[p].dur -= s.dur()
			out[p].allocs -= int64(s.Allocs)
			out[p].bytes -= int64(s.Bytes)
		}
	}
	return out
}

// layerStat is the ledger row of one layer metric.
type layerStat struct {
	calls        float64       // calls per replayed request
	median       time.Duration // median per-request self time
	allocs, byts float64       // self allocations per call
}

// layerStats folds spans into per-layer rows: per request, the self
// times of a layer's calls are summed; the row holds the median of
// those sums over the replayed requests.
func layerStats(spans []span) map[string]layerStat {
	selfs := selfTimes(spans)
	type acc struct {
		perReq        map[int]time.Duration
		calls         int
		allocs, bytes int64
	}
	accs := map[string]*acc{}
	reqs := map[int]bool{}
	for i, s := range spans {
		a := accs[s.Name]
		if a == nil {
			a = &acc{perReq: map[int]time.Duration{}}
			accs[s.Name] = a
		}
		a.perReq[s.Req] += selfs[i].dur
		a.calls++
		a.allocs += selfs[i].allocs
		a.bytes += selfs[i].bytes
		reqs[s.Req] = true
	}
	out := make(map[string]layerStat, len(accs))
	for name, a := range accs {
		vals := make([]float64, 0, len(a.perReq))
		for _, d := range a.perReq {
			vals = append(vals, float64(d))
		}
		out[name] = layerStat{
			calls:  float64(a.calls) / float64(len(reqs)),
			median: time.Duration(median(vals)),
			allocs: float64(a.allocs) / float64(a.calls),
			byts:   float64(a.bytes) / float64(a.calls),
		}
	}
	return out
}

// layers are the timed layer metrics in ledger order; an indented name
// is a child of the row above it.
var layers = []string{
	"service.decode_ms",
	"service.lookup_us",
	"  service.validate_us",
	"  service.cachekey_us",
	"gateway.route_us",
	"gateway.dispatch_ms",
	"core.pipeline_ms",
	"  chars.preprocess_ms",
	"  som.train_ms",
	"  som.place_ms",
	"  cluster.dendrogram_ms",
	"    vecmath.condensed_ms",
	"core.recommendk_ms",
	"  cluster.quality_sweep_ms",
	"core.sweep_ms",
	"service.encode_ms",
	"service.digest_us",
}

// counts are the per-request work counts, in ledger order.
var counts = []string{
	"som.bmu_evals", "vecmath.pairs", "cluster.cuts", "core.mean_evals",
	"service.request_kb", "service.response_kb",
}

// unitOf returns a layer metric's unit and its size.
func unitOf(name string) (string, time.Duration) {
	if strings.HasSuffix(name, "_us") {
		return "us", time.Microsecond
	}
	return "ms", time.Millisecond
}

// ledger is the traced replay's record: the spans, the work counts and
// the gateway-hop samples.
type ledger struct {
	tr       *tracer
	counts   map[string]float64
	viaGW    []time.Duration // fleet-hit: primed request through the gateway
	direct   []time.Duration // fleet-hit: same request straight to its home replica
	replayed int
}

// remainder is the untraced p50 not explained by the layers' median
// self times: HTTP, goroutine handoffs between client, gateway and
// replica, and glue no layer call covers.
func remainder(p50 time.Duration, stats map[string]layerStat) time.Duration {
	sum := time.Duration(0)
	for _, st := range stats {
		sum += st.median
	}
	return p50 - sum
}

// metrics returns the per-layer metrics of a traced run.
func (l *ledger) metrics(res *result, e2e map[string]metric) map[string]metric {
	stats := layerStats(l.tr.spans)
	m := map[string]metric{}
	for _, row := range layers {
		name := strings.TrimSpace(row)
		unit, size := unitOf(name)
		st := stats[name]
		m[name] = metric{float64(st.median) / float64(size), unit}
		m[name+".allocs"] = metric{st.allocs, "count"}
		m[name+".bytes"] = metric{st.byts, "B"}
	}
	for _, name := range counts {
		unit := "count"
		if strings.HasSuffix(name, "_kb") {
			unit = "KB"
		}
		m[name] = metric{l.counts[name], unit}
	}
	p50 := e2e["latency_p50_ms"].Value
	m["ledger.untraced_p50_ms"] = metric{p50, "ms"}
	m["ledger.remainder_ms"] = metric{float64(remainder(time.Duration(p50*float64(time.Millisecond)), stats)) / float64(time.Millisecond), "ms"}
	hop := 0.0
	if len(l.viaGW) > 0 {
		hop = percentile(millis(l.viaGW), 50) - percentile(millis(l.direct), 50)
	}
	m["gateway.hop_ms"] = metric{hop, "ms"}

	ok := float64(len(res.lat))
	ratio := func(x int) float64 {
		if ok == 0 {
			return 0
		}
		return float64(x) / ok
	}
	m["service.cache_hit_ratio"] = metric{ratio(res.hits), "1"}
	m["gateway.leader_ratio"] = metric{ratio(res.leaders), "1"}
	m["gateway.failovers"] = metric{float64(res.failovers), "count"}

	ops := float64(res.attempted)
	d := res.after
	b := res.before
	cpu := (d.cpu - b.cpu).Seconds()
	m["runtime.cpu_ms_per_op"] = metric{cpu * 1000 / ops, "ms"}
	m["runtime.alloc_mb_per_op"] = metric{float64(d.alloced-b.alloced) / (1 << 20) / ops, "MB"}
	m["runtime.allocs_per_op"] = metric{float64(d.allocs-b.allocs) / ops, "count"}
	gc := 0.0
	if cpu > 0 {
		gc = (d.gcCPU - b.gcCPU) / cpu
	}
	m["runtime.gc_cpu_share"] = metric{gc, "1"}
	m["runtime.peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	return m
}

// print writes the ledger table: per layer the median self time, its
// share of the untraced p50, calls and allocations per call; then the
// remainder row and the work counts.
func (l *ledger) print(w io.Writer, m map[string]metric, p50 float64) {
	stats := layerStats(l.tr.spans)
	fmt.Fprintf(w, "per-layer ledger (%d replayed requests; shares are of the untraced latency_p50_ms %.4f ms):\n", l.replayed, p50)
	fmt.Fprintf(w, "  %-28s %9s %14s %8s %12s %12s\n", "layer", "calls/req", "median self", "share", "allocs/call", "bytes/call")
	share := func(ms float64) string {
		if p50 <= 0 {
			return "-"
		}
		return fmt.Sprintf("%.1f%%", 100*ms/p50)
	}
	for _, row := range layers {
		name := strings.TrimSpace(row)
		st, ok := stats[name]
		if !ok {
			fmt.Fprintf(w, "  %-28s %9s\n", row, "absent")
			continue
		}
		unit, size := unitOf(name)
		v := float64(st.median) / float64(size)
		fmt.Fprintf(w, "  %-28s %9.1f %11.4f %-2s %8s %12.1f %12.0f\n", row, st.calls, v, unit, share(float64(st.median)/float64(time.Millisecond)), st.allocs, st.byts)
	}
	rem := m["ledger.remainder_ms"].Value
	fmt.Fprintf(w, "  %-28s %9s %11.4f %-2s %8s\n", "sum of the rows", "", p50-rem, "ms", share(p50-rem))
	fmt.Fprintf(w, "  %-28s %9s %11.4f %-2s %8s\n", "ledger.remainder_ms", "", rem, "ms", share(rem))
	if len(l.viaGW) > 0 {
		fmt.Fprintf(w, "  gateway.hop_ms %.4f ms (p50 through the gateway %.4f ms, straight to the home replica %.4f ms, %d samples each)\n",
			m["gateway.hop_ms"].Value, percentile(millis(l.viaGW), 50), percentile(millis(l.direct), 50), len(l.viaGW))
	}
	var parts []string
	for _, name := range counts {
		parts = append(parts, fmt.Sprintf("%s=%g", name, l.counts[name]))
	}
	fmt.Fprintf(w, "  work per request: %s\n", strings.Join(parts, " "))
	for _, name := range []string{"service.cache_hit_ratio", "gateway.leader_ratio", "gateway.failovers",
		"runtime.cpu_ms_per_op", "runtime.alloc_mb_per_op", "runtime.allocs_per_op", "runtime.gc_cpu_share",
		"runtime.peak_rss_mb"} {
		fmt.Fprintf(w, "  %-28s %12.4f %s  (untraced)\n", name, m[name].Value, m[name].Unit)
	}
}

// writeSpans writes the recorded spans as JSON lines.
func (l *ledger) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range l.tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
