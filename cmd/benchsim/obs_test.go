package main

import (
	"errors"
	"strings"
	"testing"

	"hmeans/internal/cliutil"
)

// TestRunRejectsRemovedParallelFlag: -parallel is gone, so a script
// still passing it fails as a usage mistake (exit 2) that names the
// flag, instead of silently measuring a different noise stream.
func TestRunRejectsRemovedParallelFlag(t *testing.T) {
	var stderr strings.Builder
	var err error
	code := cliutil.Run("benchsim", &stderr, func() error {
		err = run([]string{"-emit", "speedups", "-parallel", "2"}, &strings.Builder{})
		return err
	})
	var ue *cliutil.UsageError
	if !errors.As(err, &ue) || code != 2 {
		t.Fatalf("err = %v, exit %d; want a *cliutil.UsageError and exit 2", err, code)
	}
	if !strings.Contains(stderr.String(), "parallel") {
		t.Fatalf("stderr %q does not name the flag", stderr.String())
	}
}

func TestRunVersionFlag(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-version"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "benchsim ") {
		t.Fatalf("version output %q", out.String())
	}
}
