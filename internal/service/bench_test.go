package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
)

// benchScore drives the HTTP cache-hit path for req — read, hash,
// cache lookup, response write — with access logging either dark
// (nil) or enabled. Unless decoded is set, every iteration replays the
// primed body byte for byte, so the replica answers from its alias; with
// decoded set, each iteration sends a differently spaced body, so the
// alias misses and the decode, Validate and CacheKey run before the
// content cache hits. The variants are built up front and outnumber
// the alias table, so the steady state allocates the same on every
// iteration. The set is wired into the bench gate: the logged
// variant must stay inside the ns/op budget, and the dark variants'
// allocs/op must not move at all, proving telemetry is free when
// disabled.
func benchScore(b *testing.B, req *Request, logger *slog.Logger, decoded bool) {
	const cacheSize = 4
	srv := New(Config{CacheSize: cacheSize, AccessLog: logger})
	body, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	mux := srv.Handler()
	prime := httptest.NewRequest(http.MethodPost, "/v1/score", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, prime)
	if rec.Code != http.StatusOK {
		b.Fatalf("priming request: status %d, body %s", rec.Code, rec.Body.String())
	}
	bodies := [][]byte{body}
	if decoded {
		bodies = bodies[:0]
		for i := 1; i <= 2*cacheSize; i++ {
			bodies = append(bodies, respaced(body, i))
		}
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/score", bytes.NewReader(bodies[i%len(bodies)]))
		req.Header.Set(HeaderRequestID, "bench-000001")
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
	}
}

func BenchmarkServiceScoreDark(b *testing.B) { benchScore(b, testRequest(1), nil, false) }

func BenchmarkServiceScoreLogged(b *testing.B) {
	benchScore(b, testRequest(1), slog.New(slog.NewJSONHandler(io.Discard, nil)), false)
}

func BenchmarkServiceScoreDecoded(b *testing.B) { benchScore(b, testRequest(1), nil, true) }

// BenchmarkServiceScoreCaseStudy replays the paper's 13-workload case
// study (a 46,551-byte body) on the dark path: the body read, one
// SHA-256 and an alias hit, at the size the scoring tier serves.
func BenchmarkServiceScoreCaseStudy(b *testing.B) {
	benchScore(b, caseStudyRequest(b, 7), nil, false)
}

var benchKey [32]byte

// BenchmarkCacheKeyCaseStudy keys the paper's 13-workload case study:
// one buffer for the canonical encoding, one SHA-256.
func BenchmarkCacheKeyCaseStudy(b *testing.B) {
	req := caseStudyRequest(b, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchKey = req.CacheKey()
	}
}

// BenchmarkServiceScoreMiss scores the paper's case study on a cache
// miss through Server.Score, on either side of the SOM start table's
// property (a repeated suite). suite=repeat changes only the SOM seed
// at each iteration, so every miss after the first reuses the suite's
// start, as a replica's misses on a suite it has scored before do.
// suite=fresh also moves one counter by one ulp at each iteration, so
// no start is ever reused, and the arm measures what keying the table
// costs traffic without the property. The timed loop leaves as many
// results in the caches as it ran misses, so each arm reports the
// exact allocations (exactAllocs) of a new server's second miss
// instead: for suite=repeat, one from the start its first miss built.
func BenchmarkServiceScoreMiss(b *testing.B) {
	base := caseStudyRequest(b, 7)
	for _, fresh := range []bool{false, true} {
		name := "suite=repeat"
		if fresh {
			name = "suite=fresh"
		}
		b.Run(name, func(b *testing.B) {
			newServer := func() (*Server, *Request) {
				req := *base
				req.Table.Rows = make([][]float64, len(base.Table.Rows))
				for i, row := range base.Table.Rows {
					req.Table.Rows[i] = slices.Clone(row)
				}
				return New(Config{CacheSize: DefaultCacheSize}), &req
			}
			miss := func(srv *Server, req *Request, seed uint64) {
				req.Config.Seed = seed
				if fresh {
					req.Table.Rows[0][0] = math.Nextafter(req.Table.Rows[0][0], math.Inf(1))
				}
				if _, status, err := srv.Score(context.Background(), req); err != nil || status != CacheMiss {
					b.Fatalf("status %q, error %v; want a miss", status, err)
				}
			}
			srv, req := newServer()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				miss(srv, req, uint64(i+1))
			}
			b.StopTimer()
			srv, req = newServer()
			miss(srv, req, 1)
			b.ReportMetric(exactAllocs(func() { miss(srv, req, 2) }), "allocs/op")
		})
	}
}

// exactAllocs returns the heap allocations of one call of f, counted
// with the collector off so that none the runtime makes after a
// collection is charged to f: the count repeats exactly from run to
// run. Two collections first empty every sync.Pool (a pooled object
// survives one), so f allocates its pooled encoder state afresh
// whatever the runs before it left there.
func exactAllocs(f func()) float64 {
	runtime.GC()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs)
}
