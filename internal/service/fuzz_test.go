package service

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"hmeans/internal/faultinject"
)

// FuzzRestoreSnapshot asserts the hmeansd-snap/1 decoder never panics
// or over-allocates on hostile input — truncated, bit-flipped, and
// length-prefix-lying snapshots included — and that whatever it does
// accept is CRC-clean by construction: a record that decodes is a
// record that was written. The corpus mutates outward from a genuine
// snapshot, corrupted with the same faultinject primitives the chaos
// suite uses.
func FuzzRestoreSnapshot(f *testing.F) {
	src := New(Config{CacheSize: 8})
	for i := 1; i <= 3; i++ {
		var k cacheKey
		k[0] = byte(i)
		src.cache.Put(k, bytes.Repeat([]byte{byte('a' + i)}, 20*i))
	}
	var buf bytes.Buffer
	if _, err := src.WriteSnapshot(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()

	in := faultinject.New(2007)
	f.Add(valid)
	f.Add(in.Truncate(valid))
	f.Add(in.FlipBytes(valid, 1))
	f.Add(in.FlipBytes(valid, 8))
	f.Add([]byte(SnapshotMagic))                                             // empty snapshot
	f.Add([]byte(SnapshotMagic + "\xff\xff\xff\xff"))                        // lying length
	f.Add([]byte(SnapshotMagic + "\x00\x00\x00\x00" + "0123456789"))         // zero length
	f.Add(append([]byte(SnapshotMagic), valid...))                           // magic inside data
	f.Add(bytes.Repeat([]byte{0}, 64))                                       // not a snapshot
	f.Add(append(append([]byte{}, valid...), valid[len(SnapshotMagic):]...)) // doubled records

	f.Fuzz(func(t *testing.T, data []byte) {
		dst := New(Config{CacheSize: 8})
		st, err := dst.RestoreSnapshot(bytes.NewReader(data), nil)
		if err != nil {
			// Only the not-a-snapshot verdict may error.
			if err != ErrSnapshotFormat {
				t.Fatalf("unexpected error class: %v", err)
			}
			return
		}
		if st.Restored < 0 || st.Skipped < 0 {
			t.Fatalf("negative stats %+v", st)
		}
		if got := dst.CacheLen(); got > 8 {
			t.Fatalf("restore overflowed the cache capacity: %d entries", got)
		}
	})
}

// FuzzDecodeRequest drives the network read of POST /v1/score —
// ReadRequest's decode, Validate and CacheKey, the path both the
// gateway and a replica take — with hostile bodies. Each body is read
// three ways: with its exact Content-Length, with an unknown length
// (-1, a chunked body) and with a declared length 64 MiB beyond it.
// The declared length only sizes the read buffer, so all three must
// give the same key, the same error and the same alias table. No input
// may panic, and every rejection must be invalid input: a
// *BadRequestError (answered 400) or a "decoding request:" error.
// An accepted request must key the same way three more times:
//
//   - its canonical encoding parses back (parseCanonical) to every
//     keyed field unchanged, so the encoding is injective and equal
//     keys imply equal canonical requests;
//   - a second read of the same bytes hits the alias the first read
//     recorded and returns the decoded key, while a rejected body
//     leaves the table empty;
//   - re-encoded with json.Marshal, as Remote.Score posts it, it
//     decodes to the same content address.
func FuzzDecodeRequest(f *testing.F) {
	for _, seed := range []uint64{1, 7} {
		valid, err := json.Marshal(testRequest(seed))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(valid)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"table":{"workloads":["a","b"],"features":["f"],"rows":[[1],[2]]},"scores":{"m":[1,2]},"k":-1}`))
	f.Add([]byte(`{"table":{"workloads":["a","a"],"features":["f"],"rows":[[1],[1]]},"scores":{"m":[0,2]}}`))
	f.Add([]byte(`{"table":{"workloads":["a","b"],"features":["f"],"rows":[[1],[2]]},"scores":{"m":[1,2],"m":[3,4]},"config":{"kind":"bits","seed":18446744073709551615}}`))
	f.Add([]byte(`{"table":{"workloads":["\u00e9","b"],"features":["f"],"rows":[[-0],[1e308]]},"scores":{"":[1,2]},"k_min":3,"k_max":2}`))
	f.Add([]byte(`{"unknown":1}`))
	f.Add([]byte(`{"table":null,"scores":null,"config":null}`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`{"table":{"workloads":["","b"],"features":["","f"],"rows":[[-0,0],[5e-324,1]]},"scores":{"":[1,2],"x":[3,4]},"config":{"skip_som":true,"quarantine":true},"k":2,"k_min":2,"k_max":2}`))

	readDeclared := func(aliases *Aliases, body []byte, declared int64) ([32]byte, *Request, error) {
		r := httptest.NewRequest(http.MethodPost, "/v1/score", bytes.NewReader(body))
		r.ContentLength = declared
		_, key, req, err := ReadRequest(httptest.NewRecorder(), r, 1<<20, aliases, nil)
		return key, req, err
	}
	read := func(aliases *Aliases, body []byte) ([32]byte, *Request, error) {
		return readDeclared(aliases, body, int64(len(body)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		aliases := NewAliases(4)
		key, req, err := read(aliases, data)
		for _, declared := range []int64{-1, int64(len(data)) + 64<<20} {
			other := NewAliases(4)
			k, oreq, oerr := readDeclared(other, data, declared)
			if k != key || (oreq == nil) != (req == nil) || fmt.Sprint(oerr) != fmt.Sprint(err) || other.Len() != aliases.Len() {
				t.Fatalf("declared length %d: key match %v, decoded %v (exact length %v), error %v (exact length %v), %d aliases (exact length %d)",
					declared, k == key, oreq != nil, req != nil, oerr, err, other.Len(), aliases.Len())
			}
		}
		if err != nil {
			if n := aliases.Len(); n != 0 {
				t.Fatalf("rejected body left %d aliases", n)
			}
			var br *BadRequestError
			if errors.As(err, &br) {
				if code := HTTPStatus(err); code != http.StatusBadRequest {
					t.Fatalf("Validate rejection maps to %d, want 400", code)
				}
			} else if !strings.HasPrefix(err.Error(), "decoding request: ") {
				t.Fatalf("rejected with %T (%v), want *BadRequestError or a decoding error", err, err)
			}
			return
		}
		if req == nil {
			t.Fatal("first read of a body hit an alias")
		}
		if key != req.CacheKey() {
			t.Fatal("ReadRequest's key is not the request's CacheKey")
		}

		names := req.vectorNames()
		back, err := parseCanonical(req.appendCanonical(nil, names))
		if err != nil {
			t.Fatalf("canonical encoding does not parse back: %v\n%s", err, data)
		}
		if diff := keyedDiff(req, back); diff != "" {
			t.Fatalf("canonical encoding lost %s:\n%s", diff, data)
		}

		again, areq, err := read(aliases, data)
		if err != nil || areq != nil || again != key {
			t.Fatalf("replayed body: key match %v, decoded %v, err %v; want the alias's key, no decode", again == key, areq != nil, err)
		}

		fwd, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted request does not re-encode: %v", err)
		}
		rekeyed, _, err := read(NewAliases(0), fwd)
		if err != nil {
			t.Fatalf("re-encoded request does not decode: %v\n%s", err, fwd)
		}
		if rekeyed != key {
			t.Fatalf("re-encoding moved the content address:\n%s\n%s", data, fwd)
		}
	})
}

// parseCanonical is the inverse of appendCanonical: it reads a
// canonical encoding back into the keyed fields of a Request and
// fails on any byte it cannot account for. The row count is the
// workload count, as Validate requires of every keyed request.
func parseCanonical(b []byte) (*Request, error) {
	p := &canonicalParser{b: b}
	if v := p.string(); v != canonicalVersion {
		return nil, fmt.Errorf("version %q, want %q", v, canonicalVersion)
	}
	r := &Request{}
	r.Config.Kind = p.string()
	r.Config.Seed = p.uint64()
	r.Config.SkipSOM = p.bool()
	r.Config.SoftPlacement = p.bool()
	r.Config.Quarantine = p.bool()
	r.K = int(p.uint64())
	r.KMin = int(p.uint64())
	r.KMax = int(p.uint64())
	n := p.count(8)
	for i := 0; i < n; i++ {
		r.Table.Workloads = append(r.Table.Workloads, p.string())
	}
	for i, f := 0, p.count(8); i < f; i++ {
		r.Table.Features = append(r.Table.Features, p.string())
	}
	for i := 0; i < n; i++ {
		r.Table.Rows = append(r.Table.Rows, p.floats())
	}
	r.Scores = map[string][]float64{}
	for i, m := 0, p.count(16); i < m; i++ {
		name := p.string()
		if _, dup := r.Scores[name]; dup {
			p.fail("vector %q encoded twice", name)
		}
		r.Scores[name] = p.floats()
	}
	if p.err == nil && len(p.b) != 0 {
		p.fail("%d trailing bytes", len(p.b))
	}
	return r, p.err
}

// canonicalParser consumes a canonical encoding front to back; the
// first short read sets err and every later read returns zero.
type canonicalParser struct {
	b   []byte
	err error
}

func (p *canonicalParser) fail(format string, args ...any) {
	if p.err == nil {
		p.err = fmt.Errorf(format, args...)
	}
	p.b = nil
}

func (p *canonicalParser) take(n int) []byte {
	if p.err != nil || n < 0 || n > len(p.b) {
		p.fail("short encoding")
		return nil
	}
	out := p.b[:n]
	p.b = p.b[n:]
	return out
}

func (p *canonicalParser) uint64() uint64 {
	if b := p.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (p *canonicalParser) bool() bool {
	b := p.take(1)
	if b != nil && b[0] > 1 {
		p.fail("bool byte %d", b[0])
	}
	return b != nil && b[0] == 1
}

// count reads a length prefix of items at least minBytes long each,
// refusing one the remaining bytes cannot hold.
func (p *canonicalParser) count(minBytes int) int {
	n := p.uint64()
	if n > uint64(len(p.b)/minBytes) {
		p.fail("length %d overruns the encoding", n)
		return 0
	}
	return int(n)
}

func (p *canonicalParser) string() string { return string(p.take(p.count(1))) }

func (p *canonicalParser) floats() []float64 {
	out := make([]float64, p.count(8))
	for i := range out {
		out[i] = math.Float64frombits(p.uint64())
	}
	return out
}

// keyedDiff names the first keyed field where a and b differ, or
// returns "" when every field CacheKey encodes is equal (floats bit
// for bit, score vectors by name).
func keyedDiff(a, b *Request) string {
	switch {
	case a.Config != b.Config:
		return "config"
	case a.K != b.K || a.KMin != b.KMin || a.KMax != b.KMax:
		return "k bounds"
	case !slices.Equal(a.Table.Workloads, b.Table.Workloads):
		return "workloads"
	case !slices.Equal(a.Table.Features, b.Table.Features):
		return "features"
	case !slices.EqualFunc(a.Table.Rows, b.Table.Rows, sameBits):
		return "rows"
	case len(a.Scores) != len(b.Scores):
		return "score vector count"
	}
	for name, v := range a.Scores {
		if w, ok := b.Scores[name]; !ok || !sameBits(v, w) {
			return fmt.Sprintf("score vector %q", name)
		}
	}
	return ""
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}
