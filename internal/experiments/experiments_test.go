package experiments

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"

	"hmeans/internal/core"
)

// The suite is expensive to assemble (three SOM trainings); share one
// across the package's tests.
var (
	suiteOnce sync.Once
	suite     *Suite
	suiteErr  error
)

func sharedSuite(t *testing.T) *Suite {
	t.Helper()
	suiteOnce.Do(func() {
		suite, suiteErr = NewSuite(Config{})
	})
	if suiteErr != nil {
		t.Fatal(suiteErr)
	}
	return suite
}

func TestTableIIIMatchesPaper(t *testing.T) {
	s := sharedSuite(t)
	res, err := s.TableIII()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 13 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// The paper's headline numbers: GM(A)=2.10, GM(B)=1.94,
	// ratio=1.08. Measurement noise allows a small tolerance.
	if math.Abs(res.GMA-2.10) > 0.03 {
		t.Errorf("GM(A) = %v, paper 2.10", res.GMA)
	}
	if math.Abs(res.GMB-1.94) > 0.03 {
		t.Errorf("GM(B) = %v, paper 1.94", res.GMB)
	}
	if math.Abs(res.GMRatio-1.08) > 0.02 {
		t.Errorf("ratio = %v, paper 1.08", res.GMRatio)
	}
	// Every individual speedup within 5% of Table III.
	want := map[string][2]float64{
		"jvm98.201.compress":  {4.75, 3.99},
		"jvm98.222.mpegaudio": {6.50, 6.11},
		"SciMark2.Sparse":     {0.71, 0.90},
		"DaCapo.hsqldb":       {1.16, 2.31},
	}
	for _, r := range res.Rows {
		if w, ok := want[r.Workload]; ok {
			if math.Abs(r.A/w[0]-1) > 0.05 || math.Abs(r.B/w[1]-1) > 0.05 {
				t.Errorf("%s = (%.2f, %.2f), paper (%.2f, %.2f)", r.Workload, r.A, r.B, w[0], w[1])
			}
		}
	}
}

func TestSciMarkExclusiveEverywhere(t *testing.T) {
	// The paper's central clustering finding: SciMark2 coagulates
	// into an exclusive cluster under every characterization.
	s := sharedSuite(t)
	for _, ch := range []Characterization{SARMachineA, SARMachineB, MethodBits} {
		ks, err := s.SciMarkExclusiveKs(ch)
		if err != nil {
			t.Fatal(err)
		}
		if len(ks) == 0 {
			t.Errorf("%s: SciMark2 never exclusive in the sweep", ch)
		}
	}
}

func TestHGMTables(t *testing.T) {
	s := sharedSuite(t)
	for _, ch := range []Characterization{SARMachineA, SARMachineB, MethodBits} {
		res, err := s.HGMTable(ch)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 7 { // k = 2..8
			t.Fatalf("%s: %d rows, want 7", ch, len(res.Rows))
		}
		deviates := false
		above := 0
		for _, r := range res.Rows {
			if r.A <= 0 || r.B <= 0 {
				t.Fatalf("%s k=%d: non-positive score", ch, r.K)
			}
			if r.A >= res.GMA && r.B >= res.GMB {
				above++
			}
			if math.Abs(r.Ratio-res.GMRatio) > 0.02 {
				deviates = true
			}
		}
		// The paper's observation: collapsing the low-scoring SciMark
		// cluster raises the score above the plain GM. This holds at
		// the cuts where SciMark is exclusive; very coarse cuts can
		// mix high and low scorers and dip below, so require the
		// majority of the sweep (not all of it) to sit above.
		if above < 4 {
			t.Errorf("%s: only %d of %d cuts scored above the plain GM", ch, above, len(res.Rows))
		}
		if !deviates {
			t.Errorf("%s: no cut's ratio deviates from the plain GM ratio — redundancy removal had no effect", ch)
		}
	}
}

func TestMethodBitsSciMarkSingleCell(t *testing.T) {
	// Figure 7: SciMark2 workloads map to the same single cell under
	// method-utilization characterization.
	s := sharedSuite(t)
	p, err := s.Pipeline(MethodBits)
	if err != nil {
		t.Fatal(err)
	}
	var first []float64
	for i := range s.Workloads {
		if s.Workloads[i].Suite != "SciMark2" {
			continue
		}
		pos := p.Positions[i]
		if first == nil {
			first = pos
			continue
		}
		if pos[0] != first[0] || pos[1] != first[1] {
			t.Fatalf("SciMark members on different cells: %v vs %v", first, pos)
		}
	}
}

func TestDegeneracyThroughPipeline(t *testing.T) {
	// At k = n the HGM must equal the plain GM (Table IV's
	// convergence property taken to its limit).
	s := sharedSuite(t)
	p, err := s.Pipeline(SARMachineA)
	if err != nil {
		t.Fatal(err)
	}
	n := len(s.Workloads)
	hgm, err := p.ScoreAtK(0, s.SpeedupsA, n)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := s.TableIII()
	if math.Abs(hgm-res.GMA) > 1e-9 {
		t.Fatalf("HGM at k=n = %v, plain GM = %v", hgm, res.GMA)
	}
}

func TestRunAll(t *testing.T) {
	s := sharedSuite(t)
	var sb strings.Builder
	if err := RunAllCtx(context.Background(), s, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, id := range []string{"tableIII", "fig7", "tableVI"} {
		if !strings.Contains(out, "=== "+id) {
			t.Fatalf("RunAllCtx output missing %s", id)
		}
	}
}

func TestMicroIndepExtension(t *testing.T) {
	s := sharedSuite(t)
	res, err := s.HGMTable(MicroIndep)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 7 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// The machine-independent view must still keep the bulk of the
	// SciMark kernels together (the paper's stated expectation for
	// these features). Sparse is allowed to separate: its irregular
	// indirection-driven access pattern genuinely distinguishes it
	// once memory strides are features. Require ≥4 of the 5 kernels
	// to share a cluster at some cut with k ≥ 3.
	p, err := s.Pipeline(MicroIndep)
	if err != nil {
		t.Fatal(err)
	}
	together := false
	for k := 3; k <= 8; k++ {
		c, err := p.ClusteringAtK(k)
		if err != nil {
			t.Fatal(err)
		}
		counts := map[int]int{}
		for i := range s.Workloads {
			if s.Workloads[i].Suite == "SciMark2" {
				counts[c.Labels[i]]++
			}
		}
		for _, n := range counts {
			if n >= 4 {
				together = true
			}
		}
	}
	if !together {
		t.Error("SciMark2 bulk never co-clustered under micro-independent features")
	}
}

func TestStability(t *testing.T) {
	s := sharedSuite(t)
	res, err := s.Stability(SARMachineA, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Seeds != 4 || len(res.RatioAtK6) != 4 {
		t.Fatalf("result shape %+v", res)
	}
	// The pipeline's headline conclusion must be robust to the SOM
	// seed: most seeds find SciMark2 exclusive, clusterings agree
	// strongly, and the k=6 ratio barely moves.
	if res.ExclusiveRate < 0.75 {
		t.Errorf("exclusive rate %v too low", res.ExclusiveRate)
	}
	if res.MeanAgreement < 0.9 {
		t.Errorf("mean agreement %v too low", res.MeanAgreement)
	}
	if res.RatioSpread > 0.15 {
		t.Errorf("ratio spread %v too wide", res.RatioSpread)
	}
	if _, err := s.Stability(SARMachineA, 1); err == nil {
		t.Error("single-seed stability accepted")
	}
}

func TestSubjectivity(t *testing.T) {
	s := sharedSuite(t)
	res, err := s.Subjectivity(SARMachineA, 6, 300, 5)
	if err != nil {
		t.Fatal(err)
	}
	// The weighted-GM envelope must bracket both the plain GM and
	// the HGM (uniform weights and derived weights are both inside
	// the feasible set).
	if res.WeightedMin > res.PlainGM || res.WeightedMax < res.PlainGM {
		t.Errorf("weighted range [%v, %v] excludes the plain GM %v",
			res.WeightedMin, res.WeightedMax, res.PlainGM)
	}
	if res.WeightedMin > res.HGM || res.WeightedMax < res.HGM {
		t.Errorf("weighted range [%v, %v] excludes the HGM %v",
			res.WeightedMin, res.WeightedMax, res.HGM)
	}
	// And it must be substantially wide — that is the subjectivity
	// the paper criticizes.
	if res.WeightedMax/res.WeightedMin < 1.5 {
		t.Errorf("weight subjectivity range only %vx", res.WeightedMax/res.WeightedMin)
	}
	if _, err := s.Subjectivity(SARMachineA, 6, 0, 1); err == nil {
		t.Error("zero samples accepted")
	}
}

func TestPhasedComparison(t *testing.T) {
	s := sharedSuite(t)
	res, err := s.Phased()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.AgreementAtK) != 7 {
		t.Fatalf("agreement entries = %d", len(res.AgreementAtK))
	}
	// Averaging must not destroy the clustering signal: high
	// agreement with the phase-resolved view.
	for k, agree := range res.AgreementAtK {
		if agree < 0.7 {
			t.Errorf("k=%d agreement %v too low", k, agree)
		}
	}
	if len(res.SciExclusivePhased) == 0 {
		t.Error("phase-resolved view lost SciMark exclusivity entirely")
	}
}

func TestConfidence(t *testing.T) {
	s := sharedSuite(t)
	res, err := s.Confidence(SARMachineA, 6, 0.95, 400, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !res.PlainRatio.Contains(res.PlainRatio.Point) {
		t.Fatalf("plain interval excludes its point: %+v", res.PlainRatio)
	}
	if !res.HGMRatio.Contains(res.HGMRatio.Point) {
		t.Fatalf("HGM interval excludes its point: %+v", res.HGMRatio)
	}
	// The plain point must be the Table III ratio (~1.08).
	if res.PlainRatio.Point < 1.0 || res.PlainRatio.Point > 1.2 {
		t.Fatalf("plain ratio point %v", res.PlainRatio.Point)
	}
	// With 13 workloads the interval must be wide enough to include
	// 1.0 — the honest finding the extension documents.
	if !res.PlainRatio.Contains(1) {
		t.Fatalf("plain interval %v..%v unexpectedly excludes 1",
			res.PlainRatio.Lo, res.PlainRatio.Hi)
	}
	// The permutation test must agree: not significant.
	if res.PValue <= 0.05 || res.PValue > 1 {
		t.Fatalf("permutation p-value %v", res.PValue)
	}
}

func TestKMeansComparison(t *testing.T) {
	s := sharedSuite(t)
	var sb strings.Builder
	if err := s.RenderKMeansComparison(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "agreement") {
		t.Fatalf("output missing agreement column:\n%s", out)
	}
	// k-means must independently confirm the SciMark cluster at some
	// cut.
	if !strings.Contains(out, "yes") {
		t.Fatalf("k-means never found SciMark2:\n%s", out)
	}
}

func TestNestedExtension(t *testing.T) {
	s := sharedSuite(t)
	var sb strings.Builder
	if err := s.RenderNested(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"plain (no clustering)", "nested k=[6]", "nested k=[2 4 8]"} {
		if !strings.Contains(out, want) {
			t.Fatalf("nested output missing %q:\n%s", want, out)
		}
	}
	// Single-level nesting must equal the flat HGM at the same cut.
	p, err := s.Pipeline(SARMachineA)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := p.ScoreAtK(0, s.SpeedupsA, 6)
	if err != nil {
		t.Fatal(err)
	}
	nested, err := coreNested(s, p, []int{6})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(flat-nested) > 1e-9 {
		t.Fatalf("nested [6] = %v, flat HGM = %v", nested, flat)
	}
}

func TestCPU2006CaseStudy(t *testing.T) {
	s := sharedSuite(t)
	var sb strings.Builder
	if err := s.RenderCPU2006(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	// The planted redundancy must be flagged: the three codecs share
	// a SOM cell and appear as an exclusive cluster somewhere.
	if !strings.Contains(out, "lzA+lzB+lzC") {
		t.Errorf("codecs did not share a SOM cell:\n%s", out)
	}
	if strings.Contains(out, "exclusive at k=[]") {
		t.Errorf("codecs never exclusive:\n%s", out)
	}
	if !strings.Contains(out, "Geometric Mean") {
		t.Error("score table missing")
	}
}

func TestCompareLinkages(t *testing.T) {
	s := sharedSuite(t)
	res, err := s.CompareLinkages()
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("linkages = %d", len(res))
	}
	for _, r := range res {
		if r.AgreementAtK6 < 0 || r.AgreementAtK6 > 1 {
			t.Errorf("%v agreement %v out of range", r.Linkage, r.AgreementAtK6)
		}
		// The complete-linkage row compares with itself.
		if r.Linkage == 0 && r.AgreementAtK6 != 1 {
			t.Errorf("complete-vs-complete agreement %v != 1", r.AgreementAtK6)
		}
		// The headline conclusion should survive every linkage.
		if len(r.SciExclusiveKs) == 0 {
			t.Errorf("%v linkage loses SciMark exclusivity", r.Linkage)
		}
	}
}

func TestCompareReductions(t *testing.T) {
	s := sharedSuite(t)
	res, err := s.CompareReductions()
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("reductions = %d", len(res))
	}
	for _, r := range res {
		// Under method-bit characterization the five kernels have
		// identical vectors, so every reduction must keep them
		// together (spread 0) and exclusive somewhere.
		if r.SciMaxPairwise > 1e-9 {
			t.Errorf("%s: SciMark spread %v, want 0", r.Name, r.SciMaxPairwise)
		}
		if len(r.SciExclusiveKs) == 0 {
			t.Errorf("%s: SciMark never exclusive", r.Name)
		}
	}
}

func TestByIDAndIDs(t *testing.T) {
	if _, ok := ByID("tableIV"); !ok {
		t.Fatal("tableIV not found")
	}
	if _, ok := ByID("nonsense"); ok {
		t.Fatal("bogus ID found")
	}
	ids := IDs()
	if len(ids) != len(All()) {
		t.Fatalf("IDs() has %d entries, want %d", len(ids), len(All()))
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Runs != 10 || c.KMin != 2 || c.KMax != 8 {
		t.Fatalf("defaults = %+v", c)
	}
}

func TestPipelineCaching(t *testing.T) {
	s := sharedSuite(t)
	p1, err := s.Pipeline(SARMachineA)
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := s.Pipeline(SARMachineA)
	if p1 != p2 {
		t.Fatal("pipeline not cached")
	}
	if _, err := s.Pipeline(Characterization("bogus")); err == nil {
		t.Fatal("bogus characterization accepted")
	}
}

func TestMachineDependentClusterings(t *testing.T) {
	// Section V-B.2: "clusters might appear differently on different
	// machines" — the A and B SAR clusterings must differ at some k.
	s := sharedSuite(t)
	pa, err := s.Pipeline(SARMachineA)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := s.Pipeline(SARMachineB)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for k := s.Config.KMin; k <= s.Config.KMax; k++ {
		ca, _ := pa.ClusteringAtK(k)
		cb, _ := pb.ClusteringAtK(k)
		for i := range ca.Labels {
			if ca.Labels[i] != cb.Labels[i] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("machine A and B clusterings identical at every k — machine dependence not reproduced")
	}
}

// coreNested is a small test helper around core.NestedMean on machine
// A's speedups.
func coreNested(s *Suite, p *core.Pipeline, levels []int) (float64, error) {
	return core.NestedMean(core.Geometric, s.SpeedupsA, p.Dendrogram, levels)
}
