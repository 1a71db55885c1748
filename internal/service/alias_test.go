package service

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"hmeans/internal/obs"
)

// respaced is body with n leading spaces: the same request as JSON,
// different bytes to hash.
func respaced(body []byte, n int) []byte {
	return append(bytes.Repeat([]byte(" "), n), body...)
}

func marshalRequest(t *testing.T, req *Request) []byte {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestAliasHitMatchesDecodedHit pins the alias path against the
// decoded one: a re-spaced body is decoded, hits the content cache and
// records its own alias; a byte-identical replay is answered from its
// alias without a decode, with the same bytes, headers and access-log
// fields as the decoded hit.
func TestAliasHitMatchesDecodedHit(t *testing.T) {
	o := obs.New()
	var logBuf bytes.Buffer
	srv, ts := newTestServer(t, Config{CacheSize: 4, Obs: o, AccessLog: slog.New(slog.NewJSONHandler(&logBuf, nil))})
	aliasHits := o.Metrics().Counter("service.alias.hit")
	body := marshalRequest(t, testRequest(1))

	r1, miss := postBody(t, ts.URL, body)
	if got := r1.Header.Get(HeaderCache); got != CacheMiss {
		t.Fatalf("first request: cache %q, want %q", got, CacheMiss)
	}
	r2, decoded := postBody(t, ts.URL, respaced(body, 3))
	if got := r2.Header.Get(HeaderCache); got != CacheHit {
		t.Fatalf("re-spaced request: cache %q, want %q", got, CacheHit)
	}
	if n := aliasHits.Value(); n != 0 {
		t.Fatalf("re-spaced request hit an alias (%d); it must be decoded", n)
	}
	if n := srv.aliases.Len(); n != 2 {
		t.Fatalf("%d aliases after two distinct bodies, want 2", n)
	}
	r3, aliased := postBody(t, ts.URL, body)
	if n := aliasHits.Value(); n != 1 {
		t.Fatalf("byte-identical replay: alias hits %d, want 1", n)
	}
	if !bytes.Equal(miss, decoded) || !bytes.Equal(decoded, aliased) {
		t.Fatal("alias hit bytes differ from the decoded hit or the miss")
	}
	for _, h := range []string{"Content-Type", HeaderCache, "X-Hmeans-Key", HeaderDigest} {
		if r3.Header.Get(h) != r2.Header.Get(h) {
			t.Errorf("%s: alias hit %q, decoded hit %q", h, r3.Header.Get(h), r2.Header.Get(h))
		}
	}
	if _, again := postBody(t, ts.URL, respaced(body, 3)); !bytes.Equal(again, decoded) || aliasHits.Value() != 2 {
		t.Fatalf("re-spaced replay: alias hits %d, want 2 (its own alias)", aliasHits.Value())
	}

	lines := logLines(t, &logBuf)
	if len(lines) != 4 {
		t.Fatalf("%d access-log lines, want 4", len(lines))
	}
	decodedLine, aliasLine := lines[1], lines[2]
	for f := range decodedLine {
		if _, ok := aliasLine[f]; !ok {
			t.Errorf("alias hit's log line lacks %q: %v", f, aliasLine)
		}
	}
	for f := range aliasLine {
		if _, ok := decodedLine[f]; !ok {
			t.Errorf("alias hit's log line adds %q: %v", f, aliasLine)
		}
	}
	for _, f := range []string{"status", "cache", "key", "queue_wait_ms", "compute_ms"} {
		if aliasLine[f] != decodedLine[f] {
			t.Errorf("log %s: alias hit %v, decoded hit %v", f, aliasLine[f], decodedLine[f])
		}
	}
}

// TestAliasEvictedResultRecomputes: an alias outlives its result when
// other keys push the result out of the cache. The replay then decodes
// and recomputes, with the same bytes as before.
func TestAliasEvictedResultRecomputes(t *testing.T) {
	o := obs.New()
	srv, ts := newTestServer(t, Config{CacheSize: 1, Obs: o})
	body := marshalRequest(t, testRequest(1))
	_, first := postBody(t, ts.URL, body)
	// In-process scoring fills the result cache without touching the
	// alias table, so body's alias stays while its result is evicted.
	if _, status, err := srv.Score(context.Background(), testRequest(2)); err != nil || status != CacheMiss {
		t.Fatalf("evicting request: status %q, err %v", status, err)
	}
	r, again := postBody(t, ts.URL, body)
	if got := r.Header.Get(HeaderCache); got != CacheMiss {
		t.Fatalf("replay after eviction: cache %q, want %q", got, CacheMiss)
	}
	if !bytes.Equal(first, again) {
		t.Fatal("recomputed bytes differ from the first response")
	}
	if n := o.Metrics().Counter("service.alias.hit").Value(); n != 0 {
		t.Fatalf("alias hits %d, want 0: the alias alone cannot serve", n)
	}
}

// TestAliasDrainingReplica503: a draining replica refuses a replay it
// could answer from an alias, exactly as it refuses a decoded request.
func TestAliasDrainingReplica503(t *testing.T) {
	o := obs.New()
	srv, ts := newTestServer(t, Config{CacheSize: 4, Obs: o})
	body := marshalRequest(t, testRequest(1))
	postBody(t, ts.URL, body)
	postBody(t, ts.URL, body)
	if n := o.Metrics().Counter("service.alias.hit").Value(); n != 1 {
		t.Fatalf("alias hits %d before the drain, want 1", n)
	}
	srv.BeginDrain()
	r, raw := postBody(t, ts.URL, body)
	if r.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining replica answered an alias hit with %d, want 503 (%s)", r.StatusCode, raw)
	}
	if r.Header.Get("Retry-After") != RetryAfter {
		t.Fatal("drain refusal lacks Retry-After")
	}
}

// TestAliasTableBounded: the alias table holds at most CacheSize
// entries however many distinct bodies arrive.
func TestAliasTableBounded(t *testing.T) {
	srv, ts := newTestServer(t, Config{CacheSize: 2})
	body := marshalRequest(t, testRequest(1))
	for i := 0; i < 5; i++ {
		if r, raw := postBody(t, ts.URL, respaced(body, i)); r.StatusCode != http.StatusOK {
			t.Fatalf("body %d: status %d (%s)", i, r.StatusCode, raw)
		}
		if n := srv.aliases.Len(); n > 2 {
			t.Fatalf("after %d bodies the alias table holds %d entries, CacheSize 2", i+1, n)
		}
	}
}

// TestBodyLimitCoversWholeBody: MaxBodyBytes bounds the whole body,
// not just its first JSON value.
func TestBodyLimitCoversWholeBody(t *testing.T) {
	body := marshalRequest(t, testRequest(1))
	srv, ts := newTestServer(t, Config{CacheSize: 4, MaxBodyBytes: int64(len(body)) + 16})
	padded := append(append([]byte{}, body...), strings.Repeat(" ", 4096)...)
	r, raw := postBody(t, ts.URL, padded)
	if r.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized body: status %d, want 400 (%s)", r.StatusCode, raw)
	}
	var werr struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(raw, &werr); err != nil || werr.Error != "decoding request: http: request body too large" {
		t.Fatalf("oversized body: error %q (%v)", werr.Error, err)
	}
	if n := srv.aliases.Len(); n != 0 {
		t.Fatalf("rejected body left %d aliases", n)
	}
	if r, raw := postBody(t, ts.URL, body); r.StatusCode != http.StatusOK {
		t.Fatalf("body within the limit: status %d (%s)", r.StatusCode, raw)
	}
}

// TestDeclaredLengthCapsPresize: a body that declares 64 MiB and
// carries 10 bytes gets the usual decoding 400, and the replica
// allocates at most maxPresize up front for it, not the declared
// length.
func TestDeclaredLengthCapsPresize(t *testing.T) {
	mux := New(Config{CacheSize: 4}).Handler()
	r := httptest.NewRequest(http.MethodPost, "/v1/score", strings.NewReader("0123456789"))
	r.ContentLength = 64 << 20
	w := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	mux.ServeHTTP(w, r)
	runtime.ReadMemStats(&after)
	if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), `"decoding request: `) {
		t.Fatalf("status %d (%s), want a decoding 400", w.Code, w.Body.String())
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("a 10-byte body declaring 64 MiB allocated %d bytes", grew)
	}
}
