package main

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"hmeans/internal/cliutil"
	"hmeans/internal/load"
)

// exec runs the harness through the same cliutil.Run wrapper main
// uses, returning the exit code and the captured stdout/stderr.
func exec(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb strings.Builder
	code = cliutil.Run("hmeansload", &errb, func() error { return run(args, &out) })
	return code, out.String(), errb.String()
}

// goConcurrency: see internal/load's run tests — on a 1-CPU CI box
// GOMAXPROCS=1 serializes client and daemon, and overload scenarios
// would never shed.
func goConcurrency(t *testing.T) {
	t.Helper()
	prev := runtime.GOMAXPROCS(max(4, runtime.NumCPU()))
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func writeSLO(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "slo.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestFlagValidation(t *testing.T) {
	cases := [][]string{
		{"-mode", "laps"},
		{"-dist", "zipf"},
		{"-mix", "hit=50"},
		{"-n", "0"},
		{"-rps", "-3"},
		{"-rps", "0"}, // open mode needs a rate
		{"-mode", "closed", "-concurrency", "0"},
		{"-max-retries", "-1"},
		{"-scores", "only-one.csv"},
		{"-workloads", "2"},
		{"-features", "0"},
		{"-self.max-inflight", "-1"},
		{"-self.queue-depth", "-1"},
		{"-self.cache-size", "-1"},
		{"-input", "report.json"}, // -input without -check
	}
	for _, args := range cases {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			code, _, stderr := exec(t, args...)
			if code != 2 {
				t.Fatalf("exit %d, want 2; stderr: %s", code, stderr)
			}
			if !strings.Contains(stderr, "usage") {
				t.Fatalf("no usage hint in %q", stderr)
			}
		})
	}
}

func TestVersionFlag(t *testing.T) {
	code, stdout, stderr := exec(t, "-version")
	if code != 0 {
		t.Fatalf("exit %d, stderr %s", code, stderr)
	}
	if !strings.Contains(stdout, "hmeansload") {
		t.Fatalf("version output %q", stdout)
	}
}

// TestTraceFlushFailureFails: a trace that cannot be written out fails
// the run (exit 1, naming the write), as it does in the other
// commands, instead of exiting 0 without it.
func TestTraceFlushFailureFails(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this platform")
	}
	code, _, stderr := exec(t, "-n", "10", "-obs.trace", "/dev/full")
	if code != 1 || !strings.Contains(stderr, "/dev/full") {
		t.Fatalf("exit %d, stderr %q; want 1 naming the failed write", code, stderr)
	}
}

// TestSelfManagedRunPassesSLO is the load gate end to end through the
// CLI: a self-managed daemon, a mixed open-loop run, a JSON artifact,
// a table, and a passing -check — exit 0.
func TestSelfManagedRunPassesSLO(t *testing.T) {
	if testing.Short() {
		t.Skip("load run skipped in -short mode")
	}
	goConcurrency(t)
	slo := writeSLO(t, `{"schema":"hmeans-slo/1","max_p99_ms":30000,"max_error_rate":0.01}`)
	report := filepath.Join(t.TempDir(), "report.json")
	code, stdout, stderr := exec(t,
		"-n", "40", "-rps", "150", "-dist", "uniform", "-seed", "11",
		"-o", report, "-check", slo)
	if code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	for _, want := range []string{"self-managed hmeansd", "p50 / p95 / p99", "SLO ok"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout lacks %q:\n%s", want, stdout)
		}
	}
	rep, err := load.ReadReport(report)
	if err != nil {
		t.Fatalf("report artifact: %v", err)
	}
	if rep.Totals.Sent != 40 || rep.Totals.Errors != 0 {
		t.Fatalf("report totals %+v", rep.Totals)
	}
	// The echoed mix is the materialized draw, not the requested
	// percentages — at n=40 they differ; all three kinds must appear.
	for _, part := range []string{"hit=", "miss=", "invalid="} {
		if !strings.Contains(rep.Config.Mix, part) {
			t.Errorf("mix echo %q lacks %s", rep.Config.Mix, part)
		}
	}
}

// TestGateFailsAgainstUndersizedDaemon is the acceptance criterion:
// the exact same gate invocation, pointed at a deliberately
// undersized daemon (-self.max-inflight=1, no queue, no cache), must
// exit non-zero — and the report artifact must still be written so CI
// can upload the evidence.
func TestGateFailsAgainstUndersizedDaemon(t *testing.T) {
	if testing.Short() {
		t.Skip("load run skipped in -short mode")
	}
	goConcurrency(t)
	slo := writeSLO(t, `{"schema":"hmeans-slo/1","max_p99_ms":30000,"max_error_rate":0.01}`)
	report := filepath.Join(t.TempDir(), "report.json")
	code, stdout, stderr := exec(t,
		"-n", "60", "-rps", "200", "-mix", "hit=0,miss=100,invalid=0",
		"-workloads", "40", "-seed", "11",
		"-self.max-inflight", "1", "-self.queue-depth", "0", "-self.cache-size", "0",
		"-o", report, "-check", slo)
	if code == 0 {
		t.Fatalf("undersized daemon passed the gate\nstdout: %s", stdout)
	}
	if !strings.Contains(stderr, "SLO breach") || !strings.Contains(stderr, "error rate") {
		t.Fatalf("breach not named on stderr: %q", stderr)
	}
	rep, err := load.ReadReport(report)
	if err != nil {
		t.Fatalf("failed gate must still write the artifact: %v", err)
	}
	if rep.Totals.Shed == 0 {
		t.Fatalf("report shows no shed requests: %+v", rep.Totals)
	}
}

// TestRecheckExistingReport re-gates a recorded report without a run:
// one SLO passes it, a tightened one fails it.
func TestRecheckExistingReport(t *testing.T) {
	goConcurrency(t)
	report := filepath.Join(t.TempDir(), "report.json")
	code, stdout, stderr := exec(t, "-n", "20", "-rps", "200", "-seed", "3", "-o", report, "-table=false")
	if code != 0 {
		t.Fatalf("recording run failed: %d\n%s\n%s", code, stdout, stderr)
	}
	pass := writeSLO(t, `{"schema":"hmeans-slo/1","max_p99_ms":30000,"max_error_rate":0.01}`)
	if code, _, stderr := exec(t, "-input", report, "-check", pass); code != 0 {
		t.Fatalf("re-check of a healthy report failed: %d %s", code, stderr)
	}
	tight := writeSLO(t, `{"schema":"hmeans-slo/1","max_p99_ms":0.0001,"max_error_rate":0.01}`)
	code, _, stderr = exec(t, "-input", report, "-check", tight)
	if code == 0 {
		t.Fatal("re-check against an impossible p99 passed")
	}
	if !strings.Contains(stderr, "p99") {
		t.Fatalf("breach does not name p99: %q", stderr)
	}
}

// TestReportEchoesRunConfig: the JSON artifact records what was
// loaded and, for a self-managed run, how that daemon was sized — the
// base request's workload count, self_managed, max_inflight and
// queue_depth.
func TestReportEchoesRunConfig(t *testing.T) {
	goConcurrency(t)
	report := filepath.Join(t.TempDir(), "report.json")
	code, stdout, stderr := exec(t, "-n", "8", "-rps", "200", "-seed", "5", "-workloads", "9",
		"-self.max-inflight", "2", "-self.queue-depth", "5", "-o", report, "-table=false")
	if code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	raw, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"workloads": 9`, `"self_managed": true`, `"max_inflight": 2`, `"queue_depth": 5`} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("report lacks %s:\n%s", want, raw)
		}
	}
}
