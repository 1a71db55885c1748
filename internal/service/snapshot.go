package service

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"os"
	"path/filepath"
)

// SnapshotMagic identifies the durable cache snapshot format. Version
// 1: the magic line, then zero or more length-prefixed records, each
// CRC-guarded independently so one corrupted record never takes the
// rest of the snapshot with it:
//
//	"hmeansd-snap/1\n"
//	record := valueLen(uint32 BE) | key(32 bytes) | value(valueLen bytes)
//	          | crc32-IEEE(key ‖ value)(uint32 BE)
//
// Records are written least-recently-used first, so restoring them in
// file order through the LRU's own put rebuilds the recency order,
// not just the contents. The value bytes are the exact encoded
// response served to clients — which is what makes a warm-restart hit
// byte-identical to the pre-restart response: the snapshot stores the
// wire bytes themselves, never a re-encoding.
const SnapshotMagic = "hmeansd-snap/1\n"

// maxSnapshotValue bounds a single record's value allocation while
// decoding: a length prefix that lies (fuzzed, truncated or
// bit-flipped input) can make the decoder allocate at most this much
// before the read fails, never OOM. Matches the service's default
// request-body bound — no legitimate cached response outgrows the
// request limit by this factor.
const maxSnapshotValue = 64 << 20

// ErrSnapshotFormat reports a snapshot whose header is not a
// hmeansd-snap/1 header at all — wrong file or future version; the
// caller should start cold rather than skip records.
var ErrSnapshotFormat = errors.New("service: not a hmeansd-snap/1 snapshot")

// SnapshotStats summarizes one restore: how many records were loaded
// into the cache and how many were skipped as corrupt. Truncated is
// true when decoding stopped before a clean end-of-file (framing
// damage after the last good record).
type SnapshotStats struct {
	Restored int
	Skipped  int
	// Truncated reports that the record stream ended mid-record: a
	// torn write or a lying length prefix. Everything decoded before
	// the tear was still restored.
	Truncated bool
}

// WriteSnapshot encodes the current cache contents into w. It returns
// the number of records written. The caller owns durability (see
// Server.SaveSnapshot for the atomic file variant).
func (s *Server) WriteSnapshot(w io.Writer) (int, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(SnapshotMagic); err != nil {
		return 0, err
	}
	entries := s.cache.Entries()
	var hdr [4]byte
	for _, e := range entries {
		binary.BigEndian.PutUint32(hdr[:], uint32(len(e.Val)))
		crc := crc32.ChecksumIEEE(e.Key[:])
		crc = crc32.Update(crc, crc32.IEEETable, e.Val)
		if _, err := bw.Write(hdr[:]); err != nil {
			return 0, err
		}
		if _, err := bw.Write(e.Key[:]); err != nil {
			return 0, err
		}
		if _, err := bw.Write(e.Val); err != nil {
			return 0, err
		}
		binary.BigEndian.PutUint32(hdr[:], crc)
		if _, err := bw.Write(hdr[:]); err != nil {
			return 0, err
		}
	}
	return len(entries), bw.Flush()
}

// SaveSnapshot writes the cache to path atomically: encode into a
// temp file in the same directory, fsync, then rename over path. A
// crash mid-write leaves the previous snapshot (or none) intact —
// never a half-written file a later boot would have to distrust.
func (s *Server) SaveSnapshot(path string) (int, error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return 0, fmt.Errorf("service: snapshot: %w", err)
	}
	tmp := f.Name()
	n, err := s.WriteSnapshot(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("service: snapshot: %w", err)
	}
	s.countN("service.snapshot.saved", int64(n))
	return n, nil
}

// RestoreSnapshot decodes records from r into the cache, skipping (and
// logging, when logger is non-nil) any record whose CRC does not
// match. A record whose framing itself is damaged — a length prefix
// pointing past end-of-file or over the allocation bound — ends the
// restore early with Truncated set: framing gives no way to resync,
// so everything after the tear is dropped. The error return is
// reserved for streams that are not snapshots at all (bad magic), so
// callers can distinguish "corrupt but mine" from "not mine".
//
// Restored values go through the same put path as computed responses;
// the LRU capacity still applies, so restoring a snapshot from a
// larger configuration simply keeps the most recently used entries.
func (s *Server) RestoreSnapshot(r io.Reader, logger *slog.Logger) (SnapshotStats, error) {
	var st SnapshotStats
	br := bufio.NewReader(r)
	magic := make([]byte, len(SnapshotMagic))
	if _, err := io.ReadFull(br, magic); err != nil || string(magic) != SnapshotMagic {
		return st, ErrSnapshotFormat
	}
	var hdr [4]byte
	var key cacheKey
	for rec := 0; ; rec++ {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if err != io.EOF {
				st.Truncated = true
			}
			break
		}
		vlen := binary.BigEndian.Uint32(hdr[:])
		if vlen == 0 || vlen > maxSnapshotValue {
			// A zero or absurd length is framing damage, not a value:
			// there is no trustworthy boundary to skip to.
			st.Truncated = true
			break
		}
		if _, err := io.ReadFull(br, key[:]); err != nil {
			st.Truncated = true
			break
		}
		val := make([]byte, vlen)
		if _, err := io.ReadFull(br, val); err != nil {
			st.Truncated = true
			break
		}
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			st.Truncated = true
			break
		}
		crc := crc32.ChecksumIEEE(key[:])
		crc = crc32.Update(crc, crc32.IEEETable, val)
		if crc != binary.BigEndian.Uint32(hdr[:]) {
			// The frame was intact but the payload is damaged: skip
			// exactly this record and keep going — corruption must
			// never reach a response, and must never cost the records
			// around it.
			st.Skipped++
			if logger != nil {
				logger.Warn("snapshot record skipped",
					slog.Int("record", rec), slog.String("reason", "crc mismatch"))
			}
			continue
		}
		s.cache.Put(key, val)
		st.Restored++
	}
	if st.Truncated && logger != nil {
		logger.Warn("snapshot truncated",
			slog.Int("restored", st.Restored), slog.Int("skipped", st.Skipped))
	}
	s.countN("service.snapshot.restored", int64(st.Restored))
	s.countN("service.snapshot.skipped", int64(st.Skipped))
	return st, nil
}

// LoadSnapshot restores the cache from the file at path. A missing
// file is a normal cold start: zero stats, nil error.
func (s *Server) LoadSnapshot(path string, logger *slog.Logger) (SnapshotStats, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return SnapshotStats{}, nil
		}
		return SnapshotStats{}, fmt.Errorf("service: snapshot: %w", err)
	}
	defer f.Close()
	st, err := s.RestoreSnapshot(f, logger)
	if err != nil {
		return st, fmt.Errorf("service: snapshot %s: %w", path, err)
	}
	return st, nil
}

// countN is count for increments larger than one.
func (s *Server) countN(name string, n int64) {
	if n != 0 && s.obs.Active() {
		s.obs.Metrics().Counter(name).Add(n)
	}
}
