package simbench

import (
	"strings"
	"testing"
)

func validDemand() Demand {
	return Demand{
		WorkGOps: 50, FPFraction: 0.8, WorkingSetKB: 100, FootprintMB: 8,
		MemIntensity: 0.4, AllocIntensity: 0.01, Parallelism: 1, CodeComplexity: 0.6,
	}
}

func TestNewWorkloadValid(t *testing.T) {
	w, err := NewWorkload("SciMark2.Jacobi", SciMark2, validDemand(),
		[]string{"java.lang", "scimark.kernel"})
	if err != nil {
		t.Fatal(err)
	}
	if w.Name != "SciMark2.Jacobi" || w.Suite != SciMark2 {
		t.Fatalf("workload = %+v", w)
	}
	// The custom workload must work through the whole substrate.
	if sec := ExecutionTime(&w, MachineA()); sec <= 0 {
		t.Fatalf("execution time %v", sec)
	}
	if len(MethodProfile(&w)) == 0 {
		t.Fatal("no method profile")
	}
	samples := SampleSAR(&w, MachineB(), SARSpec{Seed: 1})
	if len(samples) != 15 {
		t.Fatal("SAR sampling failed")
	}
}

func TestNewWorkloadValidation(t *testing.T) {
	good := validDemand()
	cases := []struct {
		name    string
		mutate  func(*Demand)
		domains []string
	}{
		{"", nil, []string{"java.lang"}},
		{"w", func(d *Demand) { d.WorkGOps = 0 }, []string{"java.lang"}},
		{"w", func(d *Demand) { d.FPFraction = 1.5 }, []string{"java.lang"}},
		{"w", func(d *Demand) { d.WorkingSetKB = -1 }, []string{"java.lang"}},
		{"w", func(d *Demand) { d.FootprintMB = 0 }, []string{"java.lang"}},
		{"w", func(d *Demand) { d.MemIntensity = -0.1 }, []string{"java.lang"}},
		{"w", func(d *Demand) { d.Parallelism = 0 }, []string{"java.lang"}},
		{"w", func(d *Demand) { d.CodeComplexity = 0 }, []string{"java.lang"}},
		{"w", nil, nil},
		{"w", nil, []string{"no.such.domain"}},
	}
	for i, c := range cases {
		d := good
		if c.mutate != nil {
			c.mutate(&d)
		}
		if _, err := NewWorkload(c.name, SciMark2, d, c.domains); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestExtendSuite(t *testing.T) {
	base := BaseWorkloads()
	extra, err := NewWorkload("SciMark2.Jacobi", SciMark2, validDemand(),
		[]string{"java.lang", "scimark.kernel"})
	if err != nil {
		t.Fatal(err)
	}
	extended, err := ExtendSuite(base, extra)
	if err != nil {
		t.Fatal(err)
	}
	if len(extended) != 14 {
		t.Fatalf("extended suite has %d workloads", len(extended))
	}
	// Duplicates rejected.
	if _, err := ExtendSuite(extended, extra); err == nil {
		t.Error("duplicate addition accepted")
	}
	dup := base[0]
	if _, err := ExtendSuite(append(base, dup)); err == nil {
		t.Error("duplicate base accepted")
	}
}

func TestExtendSuiteDoesNotAliasBase(t *testing.T) {
	base := BaseWorkloads()
	extra, _ := NewWorkload("X.y", DaCapo, validDemand(), []string{"java.lang"})
	extended, err := ExtendSuite(base[:3], extra)
	if err != nil {
		t.Fatal(err)
	}
	extended[0].Name = "mutated"
	if base[0].Name == "mutated" {
		t.Fatal("ExtendSuite aliases base storage")
	}
}

// TestProposedAdoptionScenario is the end-to-end consortium question:
// adding a sixth numeric kernel must deepen the SciMark redundancy
// cluster, not diversify the suite.
func TestProposedAdoptionScenario(t *testing.T) {
	ws, _, err := CalibratedSuite()
	if err != nil {
		t.Fatal(err)
	}
	jacobi, err := NewWorkload("SciMark2.Jacobi", SciMark2, Demand{
		WorkGOps: 66, FPFraction: 0.88, WorkingSetKB: 90, FootprintMB: 5,
		MemIntensity: 0.42, AllocIntensity: 0.01, IOIntensity: 0.005,
		Parallelism: 1, CodeComplexity: 0.55, SyscallIntensity: 0.02,
	}, []string{"java.lang", "scimark.kernel", "scimark.sor"})
	if err != nil {
		t.Fatal(err)
	}
	extended, err := ExtendSuite(ws, jacobi)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := HprofTable(extended)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 14 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// In the bit view the new kernel shares the SciMark coverage
	// group, so its usage of the common library domains (java.lang
	// and the self-contained math kernel) must be identical to the
	// other kernels'. (Its kernel-specific domains legitimately
	// differ.)
	last := len(tab.Rows) - 1
	for j, name := range tab.Features {
		if !strings.HasPrefix(name, "java.lang") && !strings.HasPrefix(name, "jnt.scimark2.kernel") {
			continue
		}
		if tab.Rows[last][j] != tab.Rows[5][j] { // FFT is index 5
			t.Fatalf("new kernel differs from FFT on shared method %s", name)
		}
	}
}
