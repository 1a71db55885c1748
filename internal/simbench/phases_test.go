package simbench

import (
	"strings"
	"testing"
)

func workloadByName(t *testing.T, name string) *Workload {
	t.Helper()
	ws, _, err := CalibratedSuite()
	if err != nil {
		t.Fatal(err)
	}
	for i := range ws {
		if ws[i].Name == name {
			w := ws[i]
			return &w
		}
	}
	t.Fatalf("workload %s not found", name)
	return nil
}

func TestPhaseString(t *testing.T) {
	if PhaseSteady.String() != "steady" || PhaseWarmup.String() != "warmup" ||
		PhaseGC.String() != "gc" || PhaseIO.String() != "io" || Phase(9).String() != "unknown" {
		t.Fatal("phase names wrong")
	}
}

func TestRunStartsInWarmup(t *testing.T) {
	ws, _, _ := CalibratedSuite()
	for i := range ws {
		if got := PhaseAt(&ws[i], 0, 0); got != PhaseWarmup {
			t.Errorf("%s at t=0 is %v, want warmup", ws[i].Name, got)
		}
	}
}

func TestGCBurstsScaleWithAllocation(t *testing.T) {
	// Allocation-heavy workloads must see more GC samples than the
	// allocation-free numeric kernels.
	gcCount := func(w *Workload) int {
		n := 0
		for _, p := range phaseSchedule(w, 100) {
			if p == PhaseGC {
				n++
			}
		}
		return n
	}
	heavy := workloadByName(t, "DaCapo.xalan")
	light := workloadByName(t, "SciMark2.LU")
	if gcCount(heavy) <= gcCount(light) {
		t.Fatalf("xalan GC samples (%d) should exceed LU's (%d)",
			gcCount(heavy), gcCount(light))
	}
	if gcCount(light) > 5 {
		t.Fatalf("numeric kernel sees %d GC samples out of 100", gcCount(light))
	}
}

// phaseSchedule returns the phase of each of a campaign's samples for
// w, the way the SAR sampler walks a run.
func phaseSchedule(w *Workload, samples int) []Phase {
	out := make([]Phase, samples)
	for s := range out {
		t := 0.0
		if samples > 1 {
			t = float64(s) / float64(samples-1)
		}
		out[s] = PhaseAt(w, t, s)
	}
	return out
}

func TestPhaseScheduleDeterministic(t *testing.T) {
	w := workloadByName(t, "DaCapo.hsqldb")
	a := phaseSchedule(w, 15)
	b := phaseSchedule(w, 15)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("phase schedule not deterministic")
		}
	}
	if len(a) != 15 {
		t.Fatalf("schedule length %d", len(a))
	}
}

func TestPhaseModulationDirections(t *testing.T) {
	w := workloadByName(t, "DaCapo.hsqldb")
	f := latents(w, MachineA())
	gc := phaseModulation(f, PhaseGC)
	if gc.cpuUser >= f.cpuUser {
		t.Error("GC should depress user CPU")
	}
	if gc.pgfault <= f.pgfault {
		t.Error("GC should raise page faults")
	}
	warm := phaseModulation(f, PhaseWarmup)
	if warm.cpuSys <= f.cpuSys {
		t.Error("warmup should raise system CPU")
	}
	io := phaseModulation(f, PhaseIO)
	if io.ioWrite <= f.ioWrite {
		t.Error("IO phase should raise write traffic")
	}
	steady := phaseModulation(f, PhaseSteady)
	if steady != f {
		t.Error("steady phase must not modulate")
	}
}

func TestSARTablePhased(t *testing.T) {
	ws, _, _ := CalibratedSuite()
	tab, err := SARTablePhased(ws, MachineA(), SARSpec{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Features) != 3*len(SARCounterNames()) {
		t.Fatalf("phased features = %d, want 3x%d", len(tab.Features), len(SARCounterNames()))
	}
	// Feature naming: thirds suffixed .p0/.p1/.p2.
	if !strings.HasSuffix(tab.Features[0], ".p0") {
		t.Fatalf("first phased feature %q", tab.Features[0])
	}
	if !strings.HasSuffix(tab.Features[len(tab.Features)-1], ".p2") {
		t.Fatalf("last phased feature %q", tab.Features[len(tab.Features)-1])
	}
	if _, err := SARTablePhased(ws, MachineA(), SARSpec{Samples: 2, Seed: 1}); err == nil {
		t.Error("too few samples accepted")
	}
}

func TestWarmupVisibleInEarlyThird(t *testing.T) {
	// For a JIT-heavy workload the early third must show more system
	// CPU than the late third.
	ws, _, _ := CalibratedSuite()
	tab, err := SARTablePhased(ws, MachineA(), SARSpec{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var chartIdx = -1
	for i, n := range tab.Workloads {
		if n == "DaCapo.chart" {
			chartIdx = i
		}
	}
	var early, late = -1, -1
	for j, f := range tab.Features {
		if f == "cpu.sys.00.p0" {
			early = j
		}
		if f == "cpu.sys.00.p2" {
			late = j
		}
	}
	if chartIdx < 0 || early < 0 || late < 0 {
		t.Fatal("lookup failed")
	}
	if tab.Rows[chartIdx][early] <= tab.Rows[chartIdx][late] {
		t.Fatalf("early sys CPU (%v) should exceed late (%v) for a JIT-heavy workload",
			tab.Rows[chartIdx][early], tab.Rows[chartIdx][late])
	}
}
