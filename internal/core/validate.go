package core

import (
	"errors"
	"fmt"
	"math"

	"hmeans/internal/chars"
)

// ErrNonFinite marks input containing NaN or ±Inf — a measurement
// that cannot participate in standardization or distance computation.
var ErrNonFinite = errors.New("non-finite value")

// ErrNonPositive marks a score of zero or below: scores are times or
// rates, and such a value has no place in a ratio or a geometric or
// harmonic mean.
var ErrNonPositive = errors.New("non-positive value")

// ErrZeroVariance marks a characterization whose preprocessing
// discarded every feature: nothing varies, so nothing can be
// clustered.
var ErrZeroVariance = errors.New("no feature with usable variance")

// DataError locates a validation failure in the input data. It
// unwraps to one of the sentinels above and implements the
// DataError() marker that internal/cliutil maps to the data-error
// exit code.
type DataError struct {
	// Workload and Feature name the offending cell; either may be
	// empty when the error is not cell-specific.
	Workload string
	Feature  string
	// Index is the row (or score) index, -1 when not applicable.
	Index int
	// Value is the offending value for non-finite errors.
	Value float64
	// Err is the sentinel this error wraps.
	Err error
}

func (e *DataError) Error() string {
	switch {
	case e.Workload != "" && e.Feature != "":
		return fmt.Sprintf("core: workload %q: %v (%v) in feature %q", e.Workload, e.Err, e.Value, e.Feature)
	case e.Workload != "":
		return fmt.Sprintf("core: workload %q: %v", e.Workload, e.Err)
	case e.Index >= 0:
		return fmt.Sprintf("core: score %d: %v (%v)", e.Index, e.Err, e.Value)
	default:
		return fmt.Sprintf("core: %v", e.Err)
	}
}

func (e *DataError) Unwrap() error { return e.Err }

// DataError marks the error as caused by invalid input data rather
// than a usage or internal failure.
func (e *DataError) DataError() bool { return true }

// ValidateTable scans a characterization table in row-major order and
// returns a *DataError naming the first non-finite cell, or nil when
// every value is finite.
func ValidateTable(t *chars.Table) error {
	if t == nil {
		return nil
	}
	for i, row := range t.Rows {
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return &DataError{
					Workload: t.Workloads[i],
					Feature:  t.Features[j],
					Index:    i,
					Value:    v,
					Err:      ErrNonFinite,
				}
			}
		}
	}
	return nil
}

// ValidateScores returns a *DataError for the first non-finite or
// non-positive score, wrapping ErrNonFinite or ErrNonPositive. Scores
// are times or rates: a zero or negative value breaks every ratio and
// geometric mean downstream.
func ValidateScores(scores []float64) error {
	for i, v := range scores {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return &DataError{Index: i, Value: v, Err: ErrNonFinite}
		}
		if v <= 0 {
			return &DataError{Index: i, Value: v, Err: ErrNonPositive}
		}
	}
	return nil
}

// Quarantine records one workload the pipeline dropped in
// graceful-degradation mode.
type Quarantine struct {
	// Workload names the dropped row.
	Workload string
	// Index is the row's position in the original table.
	Index int
	// Reason says why it was dropped.
	Reason string
}

// quarantineSplit partitions a table into rows whose every value is
// finite and quarantine records for the rest. kept maps each
// surviving row back to its original index; it is nil when nothing
// was dropped (the clean table is then the input itself).
func quarantineSplit(t *chars.Table) (clean *chars.Table, dropped []Quarantine, kept []int) {
	bad := make([]string, len(t.Rows))
	for i, row := range t.Rows {
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				bad[i] = fmt.Sprintf("%v in feature %q", v, t.Features[j])
				break
			}
		}
	}
	for i, reason := range bad {
		if reason != "" {
			dropped = append(dropped, Quarantine{Workload: t.Workloads[i], Index: i, Reason: reason})
		}
	}
	if len(dropped) == 0 {
		return t, nil, nil
	}
	kept = make([]int, 0, len(t.Rows)-len(dropped))
	workloads := make([]string, 0, cap(kept))
	rows := make([][]float64, 0, cap(kept))
	for i := range t.Rows {
		if bad[i] == "" {
			kept = append(kept, i)
			workloads = append(workloads, t.Workloads[i])
			rows = append(rows, t.Rows[i])
		}
	}
	return &chars.Table{Workloads: workloads, Features: t.Features, Rows: rows}, dropped, kept
}
