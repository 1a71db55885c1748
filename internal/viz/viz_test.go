package viz

import (
	"context"
	"strings"
	"testing"

	"hmeans/internal/cluster"
	"hmeans/internal/som"
	"hmeans/internal/vecmath"
)

func trainedMap(t *testing.T) (*som.Map, []string, []vecmath.Vector) {
	t.Helper()
	samples := []vecmath.Vector{
		{0, 0, 1}, {0.1, 0, 1}, {5, 5, 0}, {9, 1, 4},
	}
	names := []string{"suite.alpha", "suite.beta", "suite.gamma", "suite.delta"}
	m, err := som.TrainCtx(context.Background(), som.Config{Rows: 4, Cols: 4, Steps: 2000, Seed: 3}, samples)
	if err != nil {
		t.Fatal(err)
	}
	return m, names, samples
}

func TestSOMMapRendersAllLabels(t *testing.T) {
	m, names, samples := trainedMap(t)
	var sb strings.Builder
	if err := SOMMap(&sb, m, names, samples); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, n := range []string{"alpha", "gamma", "delta"} {
		if !strings.Contains(out, n) {
			t.Fatalf("label %q missing from map:\n%s", n, out)
		}
	}
	// Grid framing: 5 separator lines for 4 rows.
	if got := strings.Count(out, "+--"); got == 0 {
		t.Fatal("no grid separators rendered")
	}
}

func TestSOMMapNameMismatch(t *testing.T) {
	m, _, samples := trainedMap(t)
	if err := SOMMap(&strings.Builder{}, m, []string{"x"}, samples); err == nil {
		t.Fatal("name/sample mismatch accepted")
	}
}

func TestHitSummaryListsSharedCells(t *testing.T) {
	samples := []vecmath.Vector{{1, 1}, {1, 1}, {9, 9}}
	names := []string{"aaa", "bbb", "zzz"}
	m, err := som.TrainCtx(context.Background(), som.Config{Rows: 3, Cols: 3, Steps: 1000, Seed: 1}, samples)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := HitSummary(&sb, m, names, samples); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "aaa, bbb") {
		t.Fatalf("shared cell not reported:\n%s", out)
	}
	if strings.Contains(out, "zzz") {
		t.Fatalf("singleton cell reported:\n%s", out)
	}
}

func TestDendrogramRendering(t *testing.T) {
	pts := []vecmath.Vector{{0}, {1}, {10}, {12}}
	names := []string{"w.a", "w.b", "w.c", "w.d"}
	d, err := cluster.NewDendrogramOpts(pts, vecmath.Euclidean, cluster.Complete, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := Dendrogram(&sb, d, names); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "d=12.00  {a b c d}") {
		t.Fatalf("root merge missing:\n%s", out)
	}
	if !strings.Contains(out, "d=1.00  {a b}") {
		t.Fatalf("leaf merge missing:\n%s", out)
	}
	// Indentation: the root is at depth 0, its children deeper.
	if !strings.Contains(out, "  d=") {
		t.Fatalf("no indentation:\n%s", out)
	}
}

func TestDendrogramSingleLeaf(t *testing.T) {
	d, _ := cluster.NewDendrogramOpts([]vecmath.Vector{{1}}, vecmath.Euclidean, cluster.Complete, cluster.Options{})
	var sb strings.Builder
	if err := Dendrogram(&sb, d, []string{"only"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "only") {
		t.Fatal("single leaf not rendered")
	}
}

func TestDendrogramNameMismatch(t *testing.T) {
	d, _ := cluster.NewDendrogramOpts([]vecmath.Vector{{1}, {2}}, vecmath.Euclidean, cluster.Complete, cluster.Options{})
	if err := Dendrogram(&strings.Builder{}, d, []string{"x"}); err == nil {
		t.Fatal("name mismatch accepted")
	}
}

func TestCutTable(t *testing.T) {
	pts := []vecmath.Vector{{0}, {1}, {10}, {12}}
	names := []string{"a", "b", "c", "d"}
	d, _ := cluster.NewDendrogramOpts(pts, vecmath.Euclidean, cluster.Complete, cluster.Options{})
	var sb strings.Builder
	if err := CutTable(&sb, d, names, 2, 8); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "k=2: {a b} {c d}") {
		t.Fatalf("k=2 cut wrong:\n%s", out)
	}
	if !strings.Contains(out, "k=4:") || strings.Contains(out, "k=5:") {
		t.Fatalf("cut range not clamped:\n%s", out)
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("", "A", "B", "ratio(=A/B)")
	if err := tab.AddRowf("2 Clusters", "%.2f", 2.58, 2.06, 1.25); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddRowf("Geometric Mean", "%.2f", 2.10, 1.94, 1.08); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := tab.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "2 Clusters") || !strings.Contains(out, "1.25") {
		t.Fatalf("table content missing:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines, want 4:\n%s", len(lines), out)
	}
	// Alignment: all lines same display width.
	for _, l := range lines[2:] {
		if len(l) != len(lines[2]) {
			t.Fatalf("misaligned rows:\n%s", out)
		}
	}
}

func TestTableRowTooLong(t *testing.T) {
	tab := NewTable("a", "b")
	if err := tab.AddRow("1", "2", "3"); err == nil {
		t.Fatal("overlong row accepted")
	}
}

func TestShortName(t *testing.T) {
	if shortName("SciMark2.FFT") != "FFT" || shortName("plain") != "plain" {
		t.Fatal("shortName wrong")
	}
}
