package main

import (
	"math"
	"os"
	"strings"
	"testing"

	"hmeans/internal/dataio"
	"hmeans/internal/simbench"
)

// TestRunEmitSpeedups pins -emit speedups to the single-stream
// campaign every other consumer measures (the experiment goldens and
// the benchmark inputs): the emitted speedups must equal
// simbench.MeasuredSpeedups at the default 10 runs and seed 1, bit
// for bit.
func TestRunEmitSpeedups(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-emit", "speedups", "-machine", "A"}, &out); err != nil {
		t.Fatal(err)
	}
	s, err := dataio.ReadScores(strings.NewReader(out.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Values) != 13 {
		t.Fatalf("emitted %d scores, want 13", len(s.Values))
	}
	for _, v := range s.Values {
		if v <= 0 || v > 10 {
			t.Fatalf("implausible speedup %v", v)
		}
	}
	ws, _, err := simbench.CalibratedSuite()
	if err != nil {
		t.Fatal(err)
	}
	want, err := simbench.MeasuredSpeedups(ws, simbench.MachineA(), simbench.Reference(), 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	names := simbench.WorkloadNames(ws)
	for i, v := range s.Values {
		if s.Workloads[i] != names[i] || math.Float64bits(v) != math.Float64bits(want[i]) {
			t.Errorf("row %d: emitted %s=%v, want %s=%v", i, s.Workloads[i], v, names[i], want[i])
		}
	}
}

func TestRunEmitSAR(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-emit", "sar", "-machine", "B"}, &out); err != nil {
		t.Fatal(err)
	}
	m, err := dataio.ReadMatrix(strings.NewReader(out.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != 13 || len(m.Features) < 150 {
		t.Fatalf("matrix shape %dx%d", len(m.Workloads), len(m.Features))
	}
}

func TestRunEmitMethods(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-emit", "methods"}, &out); err != nil {
		t.Fatal(err)
	}
	m, err := dataio.ReadMatrix(strings.NewReader(out.String()))
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range m.Rows {
		for _, v := range row {
			if v != 0 && v != 1 {
				t.Fatalf("non-bit value %v in methods matrix", v)
			}
		}
	}
}

func TestRunEmitTimes(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-emit", "times", "-runs", "3"}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 1+13*3 {
		t.Fatalf("times output has %d lines, want %d", len(lines), 1+13*3)
	}
	if lines[0] != "workload,run,seconds" {
		t.Fatalf("header = %q", lines[0])
	}
}

func TestRunManifestRoundTrip(t *testing.T) {
	// Export the built-in suite, then drive measurements from the
	// exported manifest; the results must match the built-in run.
	var manifest strings.Builder
	if err := run([]string{"-emit", "manifest"}, &manifest); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := dir + "/suite.json"
	if err := writeFile(t, path, manifest.String()); err != nil {
		t.Fatal(err)
	}
	var builtin, custom strings.Builder
	if err := run([]string{"-emit", "speedups", "-seed", "9"}, &builtin); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-emit", "speedups", "-seed", "9", "-suite", path}, &custom); err != nil {
		t.Fatal(err)
	}
	if builtin.String() != custom.String() {
		t.Fatal("manifest-driven run differs from the built-in suite")
	}
}

func writeFile(t *testing.T, path, content string) error {
	t.Helper()
	return os.WriteFile(path, []byte(content), 0o644)
}

func TestRunErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-emit", "nonsense"},
		{"-machine", "Z"},
		{"-badflag"},
		{"-suite", "/no/such/manifest.json"},
	} {
		if err := run(args, &strings.Builder{}); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}
