package service

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"math"
)

// canonicalVersion tags the canonical encoding. Bump it whenever the
// encoding, the semantics of any encoded field, or the bytes served
// for some request change, so stale cache entries (a restored
// snapshot's included) can never be returned for a request they no
// longer describe. Version 2: sequential SOM training runs in the
// samples' span, which moves soft_placement positions in the last
// bits. Version 3: suites above 128 workloads merge in the scan's
// tie-break order instead of NN-chain's, which moves the dendrogram,
// the cuts and the per-k means wherever merge heights tie.
const canonicalVersion = "hmeansd-req/3"

// CacheKey returns the content address of a request: the SHA-256 of
// its canonical encoding. Two requests share a key exactly when the
// pipeline is guaranteed to produce bit-identical results for them:
//
//   - the table (workload names, feature names, values) is encoded
//     with exact float64 bit patterns — no formatting, no rounding;
//   - score vectors are encoded in sorted name order, so JSON object
//     key order on the wire is irrelevant;
//   - every result-changing config knob (kind, seed, skip_som,
//     soft_placement, quarantine, k, k_min, k_max) is encoded.
func (r *Request) CacheKey() [sha256.Size]byte {
	h := sha256.New()
	writeString(h, canonicalVersion)
	writeString(h, r.Config.Kind)
	writeUint64(h, r.Config.Seed)
	writeBool(h, r.Config.SkipSOM)
	writeBool(h, r.Config.SoftPlacement)
	writeBool(h, r.Config.Quarantine)
	writeUint64(h, uint64(r.K))
	writeUint64(h, uint64(r.KMin))
	writeUint64(h, uint64(r.KMax))

	writeUint64(h, uint64(len(r.Table.Workloads)))
	for _, w := range r.Table.Workloads {
		writeString(h, w)
	}
	writeUint64(h, uint64(len(r.Table.Features)))
	for _, f := range r.Table.Features {
		writeString(h, f)
	}
	for _, row := range r.Table.Rows {
		writeUint64(h, uint64(len(row)))
		for _, v := range row {
			writeFloat(h, v)
		}
	}

	names := r.vectorNames()
	writeUint64(h, uint64(len(names)))
	for _, name := range names {
		writeString(h, name)
		v := r.Scores[name]
		writeUint64(h, uint64(len(v)))
		for _, s := range v {
			writeFloat(h, s)
		}
	}

	var key [sha256.Size]byte
	h.Sum(key[:0])
	return key
}

// writeString writes a length-prefixed string: the prefix prevents
// ambiguity between ["ab","c"] and ["a","bc"].
func writeString(h hash.Hash, s string) {
	writeUint64(h, uint64(len(s)))
	h.Write([]byte(s))
}

func writeUint64(h hash.Hash, v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	h.Write(buf[:])
}

// writeFloat writes the exact IEEE-754 bit pattern, so 0.1 hashes as
// the double the client sent, not as any decimal rendering of it.
func writeFloat(h hash.Hash, v float64) {
	writeUint64(h, math.Float64bits(v))
}

func writeBool(h hash.Hash, b bool) {
	if b {
		h.Write([]byte{1})
	} else {
		h.Write([]byte{0})
	}
}
