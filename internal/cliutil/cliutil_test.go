package cliutil

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

// fakeDataError stands in for the typed validation errors of the
// analysis packages: anything carrying DataError() bool.
type fakeDataError struct{ msg string }

func (e *fakeDataError) Error() string   { return e.msg }
func (e *fakeDataError) DataError() bool { return true }

func TestRunExitCodes(t *testing.T) {
	cases := []struct {
		name     string
		err      error
		wantCode int
		wantOut  string
	}{
		{"nil", nil, 0, ""},
		{"help", flag.ErrHelp, 0, ""},
		{"wrapped-help", fmt.Errorf("parse: %w", flag.ErrHelp), 0, ""},
		{"usage", Usagef("-retries must be >= 0, got %d", -2), 2,
			"tool: -retries must be >= 0, got -2 (run 'tool -h' for usage)\n"},
		{"wrapped-usage", fmt.Errorf("outer: %w", Usagef("bad value")), 2,
			"tool: bad value (run 'tool -h' for usage)\n"},
		{"plain", errors.New("boom"), 1, "tool: boom\n"},
		{"data", &fakeDataError{msg: "NaN in scores"}, 3,
			"tool: invalid input: NaN in scores\n"},
		{"wrapped-data", fmt.Errorf("reading scores: %w", &fakeDataError{msg: "NaN at row 3"}), 3,
			"tool: invalid input: reading scores: NaN at row 3\n"},
		{"deadline", fmt.Errorf("pipeline: %w", context.DeadlineExceeded), 1,
			"tool: timed out: pipeline: context deadline exceeded\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var sb strings.Builder
			code := Run("tool", &sb, func() error { return tc.err })
			if code != tc.wantCode {
				t.Fatalf("exit code = %d, want %d", code, tc.wantCode)
			}
			if sb.String() != tc.wantOut {
				t.Fatalf("stderr = %q, want %q", sb.String(), tc.wantOut)
			}
		})
	}
}

func TestValidatePositiveFloat(t *testing.T) {
	if err := ValidatePositiveFloat("-rps", 0.5); err != nil {
		t.Errorf("0.5 rejected: %v", err)
	}
	for _, bad := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		err := ValidatePositiveFloat("-rps", bad)
		if err == nil {
			t.Errorf("%v accepted", bad)
			continue
		}
		var ue *UsageError
		if !errors.As(err, &ue) || !strings.Contains(err.Error(), "-rps") {
			t.Errorf("%v: error %v is not a flag-naming UsageError", bad, err)
		}
	}
}

func TestRegisterTimeout(t *testing.T) {
	fs := flag.NewFlagSet("tool", flag.ContinueOnError)
	d := RegisterTimeout(fs)
	if err := fs.Parse([]string{"-timeout", "150ms"}); err != nil {
		t.Fatal(err)
	}
	if *d != 150*time.Millisecond {
		t.Fatalf("-timeout parsed to %v, want 150ms", *d)
	}
}

func TestWithTimeout(t *testing.T) {
	// Zero: a plain cancellable context with no deadline.
	ctx, cancel := WithTimeout(0)
	if _, ok := ctx.Deadline(); ok {
		t.Fatal("zero timeout set a deadline")
	}
	cancel()
	if !errors.Is(ctx.Err(), context.Canceled) {
		t.Fatalf("cancel did not propagate: %v", ctx.Err())
	}

	// Positive: the context expires on its own.
	ctx, cancel = WithTimeout(time.Millisecond)
	defer cancel()
	if _, ok := ctx.Deadline(); !ok {
		t.Fatal("positive timeout set no deadline")
	}
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("deadline context never fired")
	}
	if !errors.Is(ctx.Err(), context.DeadlineExceeded) {
		t.Fatalf("ctx.Err() = %v, want DeadlineExceeded", ctx.Err())
	}
}
