package service

import (
	"bytes"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// snapServer builds a server with a populated cache: entries keyed
// key(1)..key(n) in insertion order (key(n) most recently used).
func snapServer(capacity, n int) *Server {
	s := New(Config{CacheSize: capacity})
	for i := 1; i <= n; i++ {
		s.cache.Put(key(byte(i)), []byte(strings.Repeat("v", i)+"-response\n"))
	}
	return s
}

func snapshotBytes(t *testing.T, s *Server) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSnapshotRoundTrip(t *testing.T) {
	src := snapServer(8, 3)
	raw := snapshotBytes(t, src)
	if !bytes.HasPrefix(raw, []byte(SnapshotMagic)) {
		t.Fatalf("snapshot lacks the magic header: %q", raw[:20])
	}

	dst := New(Config{CacheSize: 8})
	st, err := dst.RestoreSnapshot(bytes.NewReader(raw), nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Restored != 3 || st.Skipped != 0 || st.Truncated {
		t.Fatalf("stats %+v, want 3 restored, clean", st)
	}
	for i := 1; i <= 3; i++ {
		want, _ := src.cache.Get(key(byte(i)))
		got, ok := dst.cache.Get(key(byte(i)))
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("entry %d: got %q ok=%v, want %q", i, got, ok, want)
		}
	}
}

// TestSnapshotPreservesRecency checks records restore in LRU order:
// after restoring a 3-entry snapshot into a capacity-3 cache, adding
// a fourth entry must evict the entry that was least recently used
// before the snapshot, not an arbitrary one.
func TestSnapshotPreservesRecency(t *testing.T) {
	src := snapServer(8, 3) // recency order: 1 (oldest), 2, 3 (newest)
	raw := snapshotBytes(t, src)

	dst := New(Config{CacheSize: 3})
	if _, err := dst.RestoreSnapshot(bytes.NewReader(raw), nil); err != nil {
		t.Fatal(err)
	}
	dst.cache.Put(key(9), []byte("ninth\n"))
	if _, ok := dst.cache.Get(key(1)); ok {
		t.Fatal("oldest pre-restart entry survived the eviction — recency order was lost")
	}
	for _, k := range []byte{2, 3, 9} {
		if _, ok := dst.cache.Get(key(k)); !ok {
			t.Fatalf("entry %d missing after eviction", k)
		}
	}
}

// TestSnapshotSkipsCorruptRecord flips one byte inside the first
// record's value: that record (and only that record) must be skipped.
func TestSnapshotSkipsCorruptRecord(t *testing.T) {
	src := snapServer(8, 3)
	raw := snapshotBytes(t, src)
	// Layout: magic | len(4) key(32) value crc(4) | ... Flip the first
	// value byte of record 0 (the LRU-first entry, key(1)).
	raw[len(SnapshotMagic)+4+32] ^= 0x40

	var logbuf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&logbuf, nil))
	dst := New(Config{CacheSize: 8})
	st, err := dst.RestoreSnapshot(bytes.NewReader(raw), logger)
	if err != nil {
		t.Fatal(err)
	}
	if st.Restored != 2 || st.Skipped != 1 || st.Truncated {
		t.Fatalf("stats %+v, want 2 restored / 1 skipped", st)
	}
	if _, ok := dst.cache.Get(key(1)); ok {
		t.Fatal("corrupt record reached the cache — a poisoned response could be served")
	}
	for _, k := range []byte{2, 3} {
		want, _ := src.cache.Get(key(k))
		got, ok := dst.cache.Get(key(k))
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("healthy record %d lost alongside the corrupt one", k)
		}
	}
	if !strings.Contains(logbuf.String(), "crc mismatch") {
		t.Fatalf("skip was not logged: %s", logbuf.String())
	}
}

func TestSnapshotTruncationStopsCleanly(t *testing.T) {
	src := snapServer(8, 3)
	raw := snapshotBytes(t, src)
	// Cut inside the last record's CRC: the first two records restore,
	// the torn third is dropped.
	cut := raw[:len(raw)-3]
	dst := New(Config{CacheSize: 8})
	st, err := dst.RestoreSnapshot(bytes.NewReader(cut), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Truncated || st.Restored != 2 || st.Skipped != 0 {
		t.Fatalf("stats %+v, want 2 restored and truncated", st)
	}
	if _, ok := dst.cache.Get(key(3)); ok {
		t.Fatal("torn record reached the cache")
	}
}

func TestSnapshotRejectsForeignFile(t *testing.T) {
	dst := New(Config{CacheSize: 8})
	for _, in := range []string{"", "not a snapshot", "hmeansd-snap/2\n\x00\x00"} {
		if _, err := dst.RestoreSnapshot(strings.NewReader(in), nil); err != ErrSnapshotFormat {
			t.Fatalf("input %q: err = %v, want ErrSnapshotFormat", in, err)
		}
	}
}

// TestSnapshotLyingLength feeds a length prefix pointing far past the
// data: the decoder must stop (truncated), not panic or over-allocate.
func TestSnapshotLyingLength(t *testing.T) {
	raw := []byte(SnapshotMagic)
	raw = append(raw, 0xFF, 0xFF, 0xFF, 0xFF) // valueLen ~4 GiB
	raw = append(raw, bytes.Repeat([]byte{0xAB}, 64)...)
	dst := New(Config{CacheSize: 8})
	st, err := dst.RestoreSnapshot(bytes.NewReader(raw), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Truncated || st.Restored != 0 {
		t.Fatalf("stats %+v, want truncated with nothing restored", st)
	}
}

func TestSaveLoadSnapshotFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cache.snap")

	src := snapServer(8, 2)
	n, err := src.SaveSnapshot(path)
	if err != nil || n != 2 {
		t.Fatalf("SaveSnapshot: n=%d err=%v", n, err)
	}
	// Atomic write leaves no temp litter behind.
	files, _ := os.ReadDir(dir)
	if len(files) != 1 {
		t.Fatalf("snapshot dir holds %d files, want only the snapshot", len(files))
	}

	dst := New(Config{CacheSize: 8})
	st, err := dst.LoadSnapshot(path, nil)
	if err != nil || st.Restored != 2 {
		t.Fatalf("LoadSnapshot: %+v err=%v", st, err)
	}

	// A missing snapshot is a cold start, not an error.
	cold := New(Config{CacheSize: 8})
	st, err = cold.LoadSnapshot(filepath.Join(dir, "absent.snap"), nil)
	if err != nil || st != (SnapshotStats{}) {
		t.Fatalf("missing file: %+v err=%v, want zero stats and nil", st, err)
	}
}

// TestSnapshotRestoreRespectsCapacity restores a 4-record snapshot
// into a capacity-2 cache: only the 2 most recently used survive.
func TestSnapshotRestoreRespectsCapacity(t *testing.T) {
	src := snapServer(8, 4)
	raw := snapshotBytes(t, src)
	dst := New(Config{CacheSize: 2})
	if _, err := dst.RestoreSnapshot(bytes.NewReader(raw), nil); err != nil {
		t.Fatal(err)
	}
	if dst.CacheLen() != 2 {
		t.Fatalf("cache holds %d entries, capacity 2", dst.CacheLen())
	}
	for _, k := range []byte{3, 4} {
		if _, ok := dst.cache.Get(key(k)); !ok {
			t.Fatalf("most-recent entry %d evicted during restore", k)
		}
	}
}
