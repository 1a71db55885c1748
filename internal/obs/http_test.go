package obs

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestLiveSinkBroadcast(t *testing.T) {
	l := NewLiveSink()
	ch, cancel := l.Subscribe()
	defer cancel()
	o := New(l)
	sp := o.StartSpan("stage")
	sp.End()
	select {
	case raw := <-ch:
		var line traceLine
		if err := json.Unmarshal(raw, &line); err != nil {
			t.Fatal(err)
		}
		if line.Type != "span" || line.Name != "stage" {
			t.Fatalf("broadcast line = %+v", line)
		}
	case <-time.After(time.Second):
		t.Fatal("no broadcast received")
	}
	cancel()
	cancel() // idempotent
	sp2 := o.StartSpan("after-cancel")
	sp2.End() // must not panic or block
}

func TestHandlerEndpoints(t *testing.T) {
	live := NewLiveSink()
	o := New(live)
	o.Metrics().Counter("pipeline.runs").Add(3)
	srv := httptest.NewServer(o.Handler())
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get("/"); code != 200 || !strings.Contains(body, "/debug/pprof") {
		t.Fatalf("index: %d %q", code, body)
	}
	if code, body := get("/metrics"); code != 200 ||
		!strings.Contains(body, "pipeline.runs") || !strings.Contains(body, "mem.total_alloc_bytes") {
		t.Fatalf("/metrics: %d %q", code, body)
	}
	if code, _ := get("/debug/vars"); code != 200 {
		t.Fatalf("/debug/vars: %d", code)
	}
	if code, body := get("/debug/pprof/"); code != 200 || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/: %d %q", code, body)
	}
	if code, _ := get("/nope"); code != 404 {
		t.Fatalf("unknown path: %d", code)
	}
}

func TestTraceEndpointStreams(t *testing.T) {
	live := NewLiveSink()
	o := New(live)
	srv := httptest.NewServer(o.Handler())
	defer srv.Close()

	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	req, _ := http.NewRequestWithContext(ctx, "GET", srv.URL+"/trace", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/trace: %d", resp.StatusCode)
	}

	// The subscription is registered asynchronously with the request;
	// keep emitting until a line arrives.
	lines := make(chan string, 1)
	go func() {
		r := bufio.NewReader(resp.Body)
		line, err := r.ReadString('\n')
		if err == nil {
			lines <- line
		}
	}()
	deadline := time.After(5 * time.Second)
	for {
		sp := o.StartSpan("tick")
		sp.End()
		select {
		case line := <-lines:
			if !strings.Contains(line, `"tick"`) {
				t.Fatalf("streamed line %q", line)
			}
			return
		case <-deadline:
			t.Fatal("no streamed span within 5s")
		case <-time.After(10 * time.Millisecond):
		}
	}
}

func TestTraceEndpointWithoutLiveSink(t *testing.T) {
	o := New() // no live sink
	srv := httptest.NewServer(o.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/trace without live sink: %d", resp.StatusCode)
	}
}

func TestFlagsDisabledSession(t *testing.T) {
	f := &Flags{}
	s, err := f.Start()
	if err != nil {
		t.Fatal(err)
	}
	if s.Obs != nil || s.HTTPAddr != "" {
		t.Fatalf("disabled session not empty: %+v", s)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestFlagsFullSession(t *testing.T) {
	dir := t.TempDir()
	f := &Flags{
		HTTP:       "127.0.0.1:0",
		Trace:      filepath.Join(dir, "trace.jsonl"),
		CPUProfile: filepath.Join(dir, "cpu.pprof"),
		MemProfile: filepath.Join(dir, "mem.pprof"),
		Detail:     true,
	}
	s, err := f.Start()
	if err != nil {
		t.Fatal(err)
	}
	if s.Obs == nil || !s.Obs.Detail() {
		t.Fatal("session observer missing or detail off")
	}
	if Default() != s.Obs {
		t.Fatal("session did not install the default observer")
	}
	sp := s.Obs.StartSpan("stage")
	sp.End()

	resp, err := http.Get("http://" + s.HTTPAddr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics over session server: %d", resp.StatusCode)
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal("second Close not idempotent:", err)
	}
	if Default() != nil {
		t.Fatal("default observer not restored")
	}

	raw, err := os.ReadFile(f.Trace)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := ValidateTrace(strings.NewReader(string(raw)))
	if err != nil {
		t.Fatalf("session trace invalid: %v", err)
	}
	if stats.Spans != 1 {
		t.Fatalf("session trace spans = %d", stats.Spans)
	}
	for _, p := range []string{f.CPUProfile, f.MemProfile} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
}

func TestFlagsBadPaths(t *testing.T) {
	f := &Flags{Trace: filepath.Join(t.TempDir(), "no", "such", "dir", "t.jsonl")}
	if _, err := f.Start(); err == nil {
		t.Fatal("unwritable trace path accepted")
	}
	if Default() != nil {
		t.Fatal("failed Start leaked a default observer")
	}
}

func TestRegisterFlagsParses(t *testing.T) {
	fs := flagSet()
	f := RegisterFlags(fs)
	err := fs.Parse([]string{"-obs.trace", "x.jsonl", "-obs.detail", "-version"})
	if err != nil {
		t.Fatal(err)
	}
	if f.Trace != "x.jsonl" || !f.Detail || !f.Version {
		t.Fatalf("parsed flags: %+v", f)
	}
	var sb strings.Builder
	if !f.PrintVersion(&sb, "tool") {
		t.Fatal("PrintVersion should fire")
	}
	if !strings.HasPrefix(sb.String(), "tool ") {
		t.Fatalf("version line %q", sb.String())
	}
}

func flagSet() *flag.FlagSet {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs
}
