// Package cliutil holds the small shared conventions of the cmd/
// binaries: a usage-error type that exits with the conventional status
// 2 and a one-line hint, a shared -timeout flag that bounds a whole
// run with a context deadline, and the main-function wrapper that
// maps a run function's error to the process exit code (0 ok, 1
// internal/runtime failure, 2 usage mistake, 3 invalid input data,
// 4 service unavailable, 5 transport failure).
package cliutil

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
)

// UsageError marks a command-line mistake (bad flag value, missing
// argument): the user needs the usage hint, not a stack of context.
type UsageError struct{ msg string }

// Usagef builds a UsageError.
func Usagef(format string, args ...any) *UsageError {
	return &UsageError{msg: fmt.Sprintf(format, args...)}
}

// Error returns the message.
func (e *UsageError) Error() string { return e.msg }

// Parse parses a command line into fs, reporting a malformed one — an
// unknown flag, a value its flag cannot parse — as a *UsageError so it
// exits 2 like every other usage mistake. flag.ErrHelp passes through
// unchanged; Run maps it to 0.
func Parse(fs *flag.FlagSet, args []string) error {
	err := fs.Parse(args)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return err
	}
	return &UsageError{msg: err.Error()}
}

// dataError is the marker interface the data packages (core, cluster)
// implement on their typed input-validation errors. Matching on the
// method instead of the concrete types keeps cliutil free of
// dependencies on the analysis packages.
type dataError interface {
	error
	DataError() bool
}

// Exit codes beyond the classic 0/1/2/3 quartet, for errors that
// carry their own code via ExitCoder. Scripts branch on these: 4
// means "come back later" (retry against the service), 5 means "check
// the network path" — neither is a reason to distrust the inputs.
const (
	// ExitUnavailable (4) marks a service that refused work it will
	// accept later: shed with 429, draining with 503, or a client-side
	// circuit breaker holding requests back.
	ExitUnavailable = 4
	// ExitTransport (5) marks a network-level failure: connection
	// refused or reset, a torn response, or a body that failed its
	// integrity check — the request may never have reached the
	// service, or the answer never cleanly left it.
	ExitTransport = 5
)

// ExitCoder lets an error pick its own exit code. Checked after the
// usage and data-error conventions, so those classic mappings can
// never be overridden.
type ExitCoder interface {
	error
	ExitCode() int
}

// Run executes a command's run function and maps its error to an exit
// code, printing diagnostics to stderr:
//
//	nil              → 0
//	flag.ErrHelp     → 0 (the flag package already printed usage)
//	*UsageError      → 2, message plus a "-h" hint on one line
//	data error       → 3, message prefixed with "invalid input"
//	ExitCoder        → its ExitCode() (4 unavailable, 5 transport)
//	anything else    → 1, message prefixed with the tool name
//
// A data error is any error whose chain carries a DataError() bool
// method — bad input data (non-finite values, degenerate requests)
// rather than a bug or a usage mistake, so scripts can tell the
// difference. main functions reduce to
// os.Exit(cliutil.Run(name, os.Stderr, fn)).
func Run(name string, stderr io.Writer, fn func() error) int {
	err := fn()
	switch {
	case err == nil:
		return 0
	case errors.Is(err, flag.ErrHelp):
		return 0
	}
	var ue *UsageError
	if errors.As(err, &ue) {
		fmt.Fprintf(stderr, "%s: %s (run '%s -h' for usage)\n", name, ue.msg, name)
		return 2
	}
	var de dataError
	if errors.As(err, &de) && de.DataError() {
		fmt.Fprintf(stderr, "%s: invalid input: %v\n", name, err)
		return 3
	}
	var ec ExitCoder
	if errors.As(err, &ec) {
		fmt.Fprintf(stderr, "%s: %v\n", name, err)
		return ec.ExitCode()
	}
	if errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(stderr, "%s: timed out: %v\n", name, err)
		return 1
	}
	fmt.Fprintf(stderr, "%s: %v\n", name, err)
	return 1
}

// ValidatePositiveFloat checks a float flag that must be strictly
// positive and finite — rates like -rps, where 0, negatives, NaN and
// ±Inf are all usage mistakes rather than extreme settings.
func ValidatePositiveFloat(flagName string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
		return Usagef("%s must be a positive finite number, got %v", flagName, v)
	}
	return nil
}

// ValidateMin checks an integer flag against its lower bound,
// reporting a UsageError naming the flag on violation. It covers the
// server-tuning flags (-max-inflight >= 1, -queue-depth >= 0,
// -cache-size >= 0) without a bespoke check per flag.
func ValidateMin(flagName string, v, min int) error {
	if v < min {
		return Usagef("%s must be >= %d, got %d", flagName, min, v)
	}
	return nil
}
