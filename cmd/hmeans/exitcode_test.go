package main

import (
	"strings"
	"testing"

	"hmeans/internal/cliutil"
)

// exec runs the CLI through the same cliutil.Run wrapper main uses,
// returning the process exit code plus captured stdout/stderr.
func exec(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb strings.Builder
	code = cliutil.Run("hmeans", &errb, func() error { return run(args, &out) })
	return code, out.String(), errb.String()
}

// TestExitCodes pins the exit-code taxonomy: 0 success, 1 internal or
// timeout, 2 usage mistake, 3 invalid input data.
func TestExitCodes(t *testing.T) {
	scores := writeTemp(t, "scores.csv", "workload,score\na,4\nb,3.9\nc,1\nd,0.5\n")
	nanScores := writeTemp(t, "nan-scores.csv", "workload,score\na,4\nb,NaN\nc,1\nd,0.5\n")
	zeroScores := writeTemp(t, "zero-scores.csv", "workload,score\na,4\nb,0\nc,1\nd,0.5\n")
	chars := writeTemp(t, "chars.csv",
		"workload,f1,f2\na,9,1\nb,9.1,1.1\nc,2,8\nd,1,9\n")
	nanChars := writeTemp(t, "nan-chars.csv",
		"workload,f1,f2\na,9,1\nb,NaN,1.1\nc,2,8\nd,1,9\n")
	// Finite, but f1's variance overflows, so b's z-score is NaN.
	hugeChars := writeTemp(t, "huge-chars.csv",
		"workload,f1,f2\na,1.7e308,1\nb,-1.7e308,2\nc,1.7e308,3\nd,0,4\n")

	t.Run("success is 0", func(t *testing.T) {
		code, _, stderr := exec(t, "-scores", scores, "-chars", chars)
		if code != 0 {
			t.Fatalf("exit %d, stderr: %s", code, stderr)
		}
	})

	t.Run("usage mistake is 2", func(t *testing.T) {
		code, _, stderr := exec(t, "-chars", chars)
		if code != 2 {
			t.Fatalf("exit %d, want 2; stderr: %s", code, stderr)
		}
		if !strings.Contains(stderr, "-h' for usage") {
			t.Fatalf("no usage hint in %q", stderr)
		}
	})

	// Unknown flags and malformed flag values are usage mistakes too,
	// including the algorithm-selection flags this command no longer
	// has: scripts still passing them fail loudly instead of running.
	for _, tc := range []struct {
		name, flag string
		args       []string
	}{
		{"removed -linkage-algo flag is 2", "linkage-algo", []string{"-linkage-algo", "nnchain"}},
		{"removed -som.bmu flag is 2", "som.bmu", []string{"-som.bmu", "pruned"}},
		{"malformed flag value is 2", "-k", []string{"-k", "abc"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, _, stderr := exec(t, append([]string{"-scores", scores, "-chars", chars}, tc.args...)...)
			if code != 2 {
				t.Fatalf("exit %d, want 2; stderr: %s", code, stderr)
			}
			if !strings.Contains(stderr, tc.flag) || !strings.Contains(stderr, "-h' for usage") {
				t.Fatalf("stderr %q should name the flag and carry the usage hint", stderr)
			}
		})
	}

	t.Run("non-finite score is 3", func(t *testing.T) {
		code, _, stderr := exec(t, "-scores", nanScores, "-chars", chars)
		if code != 3 {
			t.Fatalf("exit %d, want 3; stderr: %s", code, stderr)
		}
		if !strings.Contains(stderr, "invalid input") {
			t.Fatalf("no invalid-input prefix in %q", stderr)
		}
	})

	// A zero score is refused before any computation, for every mean
	// family, as a data error naming the score.
	for _, mean := range []string{"geometric", "arithmetic", "harmonic"} {
		t.Run("zero score is 3 with the "+mean+" mean", func(t *testing.T) {
			code, _, stderr := exec(t, "-scores", zeroScores, "-chars", chars, "-mean", mean)
			if code != 3 {
				t.Fatalf("exit %d, want 3; stderr: %s", code, stderr)
			}
			if !strings.Contains(stderr, "invalid input") || !strings.Contains(stderr, "score 1: non-positive value (0)") {
				t.Fatalf("stderr %q should be an invalid-input error naming score 1", stderr)
			}
		})
	}

	t.Run("non-finite characterization is 3", func(t *testing.T) {
		code, _, stderr := exec(t, "-scores", scores, "-chars", nanChars)
		if code != 3 {
			t.Fatalf("exit %d, want 3; stderr: %s", code, stderr)
		}
	})

	t.Run("overflowing standardization is 3", func(t *testing.T) {
		code, _, stderr := exec(t, "-scores", scores, "-chars", hugeChars)
		if code != 3 {
			t.Fatalf("exit %d, want 3; stderr: %s", code, stderr)
		}
		if !strings.Contains(stderr, `workload "b"`) || !strings.Contains(stderr, `feature "f1"`) {
			t.Fatalf("stderr %q should name workload b and feature f1", stderr)
		}
	})

	t.Run("quarantine downgrades to 0", func(t *testing.T) {
		code, stdout, stderr := exec(t, "-scores", scores, "-chars", nanChars, "-quarantine")
		if code != 0 {
			t.Fatalf("exit %d, want 0; stderr: %s", code, stderr)
		}
		if !strings.Contains(stdout, "quarantined b:") {
			t.Fatalf("no quarantine report in stdout:\n%s", stdout)
		}
	})

	t.Run("degenerate cut is 3", func(t *testing.T) {
		code, _, stderr := exec(t, "-scores", scores, "-chars", chars, "-k", "10")
		if code != 3 {
			t.Fatalf("exit %d, want 3; stderr: %s", code, stderr)
		}
	})

	t.Run("expired timeout is 1", func(t *testing.T) {
		code, _, stderr := exec(t, "-scores", scores, "-chars", chars, "-timeout", "1ns")
		if code != 1 {
			t.Fatalf("exit %d, want 1; stderr: %s", code, stderr)
		}
		if !strings.Contains(stderr, "timed out") {
			t.Fatalf("no timeout message in %q", stderr)
		}
	})
}
