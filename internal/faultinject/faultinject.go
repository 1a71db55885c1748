// Package faultinject provides deterministic, seeded fault injection
// for the robustness test suite: poisoned characterization values,
// corrupted serialized artifacts, and a chaos proxy that damages
// network traffic. Every fault is a pure function of the injector's
// seed, so a failing chaos test replays exactly.
//
// The package deliberately lives under internal/ and is imported
// only from tests: production code paths never depend on it.
package faultinject

import (
	"math"

	"hmeans/internal/chars"
	"hmeans/internal/rng"
)

// Injector draws every fault location and value from one seeded
// stream.
type Injector struct {
	r *rng.Source
}

// New returns an injector whose faults depend only on seed.
func New(seed uint64) *Injector {
	return &Injector{r: rng.New(seed)}
}

// PoisonedCell records one cell an injector overwrote.
type PoisonedCell struct {
	// Row and Col locate the cell in the table.
	Row, Col int
	// Value is the non-finite value written there.
	Value float64
}

// nonFinite cycles through the three ways a float can go bad.
var nonFinite = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}

// PoisonTable clones t and overwrites up to `cells` distinct cells
// with non-finite values (NaN, +Inf, -Inf in rotation). It returns
// the poisoned clone and the cells hit, sorted by draw order; the
// input table is left untouched.
func (in *Injector) PoisonTable(t *chars.Table, cells int) (*chars.Table, []PoisonedCell) {
	out := t.Clone()
	total := len(out.Rows) * len(out.Features)
	if cells > total {
		cells = total
	}
	seen := make(map[int]bool, cells)
	hits := make([]PoisonedCell, 0, cells)
	for len(hits) < cells {
		flat := in.r.Intn(total)
		if seen[flat] {
			continue
		}
		seen[flat] = true
		row, col := flat/len(out.Features), flat%len(out.Features)
		v := nonFinite[len(hits)%len(nonFinite)]
		out.Rows[row][col] = v
		hits = append(hits, PoisonedCell{Row: row, Col: col, Value: v})
	}
	return out, hits
}

// Truncate returns a copy of b cut at a seeded point strictly inside
// (0, len(b)) — a partially written artifact.
func (in *Injector) Truncate(b []byte) []byte {
	if len(b) < 2 {
		return nil
	}
	cut := 1 + in.r.Intn(len(b)-1)
	return append([]byte(nil), b[:cut]...)
}

// FlipBytes returns a copy of b with n seeded single-byte
// corruptions (each byte XORed with a non-zero mask).
func (in *Injector) FlipBytes(b []byte, n int) []byte {
	out := append([]byte(nil), b...)
	if len(out) == 0 {
		return out
	}
	for i := 0; i < n; i++ {
		pos := in.r.Intn(len(out))
		mask := byte(1 + in.r.Intn(255))
		out[pos] ^= mask
	}
	return out
}
