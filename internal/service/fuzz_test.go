package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
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
		src.cache.put(k, bytes.Repeat([]byte{byte('a' + i)}, 20*i))
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

// FuzzDecodeRequest drives the network decode of POST /v1/score —
// DecodeRequest, Validate, CacheKey, the path both the gateway and a
// replica take — with hostile bodies. No input may panic; every
// request Validate refuses must be a *BadRequestError (answered 400);
// and an accepted request, re-encoded with json.Marshal as
// Remote.Score forwards it to a replica, must decode to the same
// content address, or the gateway and the replica would disagree on
// the key they cache under.
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

	decode := func(body []byte) (*Request, error) {
		r := httptest.NewRequest(http.MethodPost, "/v1/score", bytes.NewReader(body))
		return DecodeRequest(httptest.NewRecorder(), r, 1<<20)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := decode(data)
		if err != nil {
			return
		}
		if err := req.Validate(); err != nil {
			if _, ok := err.(*BadRequestError); !ok {
				t.Fatalf("Validate rejected with %T (%v), want *BadRequestError", err, err)
			}
			if code := HTTPStatus(err); code != http.StatusBadRequest {
				t.Fatalf("Validate rejection maps to %d, want 400", code)
			}
			return
		}
		key := req.CacheKey()
		fwd, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted request does not re-encode: %v", err)
		}
		again, err := decode(fwd)
		if err != nil {
			t.Fatalf("re-encoded request does not decode: %v\n%s", err, fwd)
		}
		if again.CacheKey() != key {
			t.Fatalf("re-encoding moved the content address:\n%s\n%s", data, fwd)
		}
	})
}
