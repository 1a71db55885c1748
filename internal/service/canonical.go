package service

import (
	"crypto/sha256"
	"encoding/binary"
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
// the cuts and the per-k means wherever merge heights tie. Version 4:
// the SOM's PCA plane comes from one Jacobi inside the samples' span,
// which changes its rounding and can flip an axis's sign, so a map
// may start, and train, as the mirror image of the one before.
const canonicalVersion = "hmeansd-req/4"

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
	names := r.vectorNames()
	return sha256.Sum256(r.appendCanonical(make([]byte, 0, r.canonicalSize(names)), names))
}

// appendCanonical appends the canonical encoding of r to b, with the
// score vectors in names order (r.vectorNames). Every string carries a
// length prefix, which separates ["ab","c"] from ["a","bc"]; every
// number is 8 little-endian bytes, a float as its exact IEEE-754 bit
// pattern, so 0.1 encodes as the double the client sent, not as any
// decimal rendering of it. The row count is not written: Validate
// pins it to the workload count, and only validated requests are
// keyed.
func (r *Request) appendCanonical(b []byte, names []string) []byte {
	b = appendString(b, canonicalVersion)
	b = appendString(b, r.Config.Kind)
	b = binary.LittleEndian.AppendUint64(b, r.Config.Seed)
	b = append(b, boolByte(r.Config.SkipSOM), boolByte(r.Config.SoftPlacement), boolByte(r.Config.Quarantine))
	b = binary.LittleEndian.AppendUint64(b, uint64(r.K))
	b = binary.LittleEndian.AppendUint64(b, uint64(r.KMin))
	b = binary.LittleEndian.AppendUint64(b, uint64(r.KMax))

	b = binary.LittleEndian.AppendUint64(b, uint64(len(r.Table.Workloads)))
	for _, w := range r.Table.Workloads {
		b = appendString(b, w)
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(len(r.Table.Features)))
	for _, f := range r.Table.Features {
		b = appendString(b, f)
	}
	for _, row := range r.Table.Rows {
		b = appendFloats(b, row)
	}

	b = binary.LittleEndian.AppendUint64(b, uint64(len(names)))
	for _, name := range names {
		b = appendString(b, name)
		b = appendFloats(b, r.Scores[name])
	}
	return b
}

// canonicalSize is the exact length of r's canonical encoding, so
// CacheKey fills one buffer without growing it.
func (r *Request) canonicalSize(names []string) int {
	n := 8 + len(canonicalVersion) + 8 + len(r.Config.Kind) + 8 + 3 + 3*8
	n += 8
	for _, w := range r.Table.Workloads {
		n += 8 + len(w)
	}
	n += 8
	for _, f := range r.Table.Features {
		n += 8 + len(f)
	}
	for _, row := range r.Table.Rows {
		n += 8 + 8*len(row)
	}
	n += 8
	for _, name := range names {
		n += 8 + len(name) + 8 + 8*len(r.Scores[name])
	}
	return n
}

func appendString(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(len(s)))
	return append(b, s...)
}

// appendFloats appends a length-prefixed float64 slice.
func appendFloats(b []byte, v []float64) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(len(v)))
	for _, x := range v {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	return b
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}
