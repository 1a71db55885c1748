package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hmeans/internal/cliutil"
	"hmeans/internal/obs"
)

// TestRunRejectsRemovedParallelFlag: -parallel is gone (every run
// uses one goroutine), so a script still passing it fails as a usage
// mistake (exit 2) that names the flag.
func TestRunRejectsRemovedParallelFlag(t *testing.T) {
	scores := writeTemp(t, "scores.csv", "workload,score\na,4\nb,1\n")
	var stderr strings.Builder
	var err error
	code := cliutil.Run("hmeans", &stderr, func() error {
		err = run([]string{"-scores", scores, "-chars", scores, "-parallel", "2"}, &strings.Builder{})
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

func TestRunMissingScoresIsUsageError(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-chars", "x.csv"}, &out)
	var ue *cliutil.UsageError
	if !errors.As(err, &ue) {
		t.Fatalf("err = %v, want UsageError", err)
	}
}

func TestRunVersionFlag(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-version"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "hmeans ") {
		t.Fatalf("version output %q", out.String())
	}
}

// TestRunWritesValidTrace drives the full-pipeline mode with
// -obs.trace and checks the file validates and contains the stage
// spans.
func TestRunWritesValidTrace(t *testing.T) {
	scores := writeTemp(t, "scores.csv", "workload,score\na,4\nb,3.9\nc,1\nd,0.5\n")
	chars := writeTemp(t, "chars.csv",
		"workload,f1,f2\na,9,1\nb,9.1,1.1\nc,2,8\nd,1,9\n")
	trace := filepath.Join(t.TempDir(), "trace.jsonl")
	var out strings.Builder
	if err := run([]string{"-scores", scores, "-chars", chars, "-k", "2", "-obs.trace", trace}, &out); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(trace)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stats, err := obs.ValidateTrace(f)
	if err != nil {
		t.Fatalf("trace does not validate: %v", err)
	}
	if stats.Spans == 0 {
		t.Fatal("trace has no spans")
	}
	if _, err := f.Seek(0, 0); err != nil {
		t.Fatal(err)
	}
	tr, err := obs.ReadTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, s := range tr.Spans {
		names[s.Name] = true
	}
	for _, want := range []string{"pipeline", "characterize", "reduce", "cluster", "cut", "means"} {
		if !names[want] {
			t.Fatalf("trace missing %q span; has %v", want, names)
		}
	}
	// The session must not leak a default observer into later tests.
	if obs.Default() != nil {
		t.Fatal("default observer leaked")
	}
}
