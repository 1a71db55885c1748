package dataio

import (
	"strings"
	"testing"
)

func TestReadScoresWithHeader(t *testing.T) {
	in := "workload,score\nalpha,4.75\nbeta,1.09\n"
	s, err := ReadScores(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Workloads) != 2 || s.Workloads[0] != "alpha" || s.Values[1] != 1.09 {
		t.Fatalf("parsed %+v", s)
	}
}

func TestReadScoresWithoutHeader(t *testing.T) {
	s, err := ReadScores(strings.NewReader("alpha,4.75\nbeta,2\n"))
	if err != nil || len(s.Values) != 2 {
		t.Fatalf("parsed %+v, %v", s, err)
	}
}

func TestReadScoresErrors(t *testing.T) {
	if _, err := ReadScores(strings.NewReader("")); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := ReadScores(strings.NewReader("workload,score\nalpha,notanumber\n")); err == nil {
		t.Error("bad value accepted")
	}
	if _, err := ReadScores(strings.NewReader("lonefield\n")); err == nil {
		t.Error("single-field row accepted")
	}
}

func TestScoresRoundTrip(t *testing.T) {
	orig := Scores{Workloads: []string{"a", "b"}, Values: []float64{1.5, 2.25}}
	var sb strings.Builder
	if err := WriteScores(&sb, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ReadScores(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	for i := range orig.Values {
		if back.Workloads[i] != orig.Workloads[i] || back.Values[i] != orig.Values[i] {
			t.Fatalf("round trip: %+v vs %+v", back, orig)
		}
	}
}

func TestReadClusters(t *testing.T) {
	in := "workload,cluster\nalpha,0\nbeta,0\ngamma,1\n"
	c, err := ReadClusters(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Labels) != 3 || c.Labels[2] != 1 {
		t.Fatalf("parsed %+v", c)
	}
	if _, err := ReadClusters(strings.NewReader("a,xyz\n")); err == nil {
		t.Error("bad label accepted")
	}
	if _, err := ReadClusters(strings.NewReader("workload,cluster\n")); err == nil {
		t.Error("header-only input accepted")
	}
}

func TestReadMatrix(t *testing.T) {
	in := "workload,cpu,mem\nalpha,1,2\nbeta,3,4\n"
	m, err := ReadMatrix(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Features) != 2 || m.Features[1] != "mem" {
		t.Fatalf("features %v", m.Features)
	}
	if m.Rows[1][0] != 3 || m.Workloads[0] != "alpha" {
		t.Fatalf("parsed %+v", m)
	}
}

func TestReadMatrixErrors(t *testing.T) {
	if _, err := ReadMatrix(strings.NewReader("workload,cpu\n")); err == nil {
		t.Error("header-only matrix accepted")
	}
	if _, err := ReadMatrix(strings.NewReader("workload,cpu\nalpha,1,2\n")); err == nil {
		t.Error("ragged row accepted")
	}
	if _, err := ReadMatrix(strings.NewReader("workload,cpu\nalpha,NaNope\n")); err == nil {
		t.Error("bad cell accepted")
	}
}

func TestMatrixRoundTrip(t *testing.T) {
	orig := Matrix{
		Workloads: []string{"a", "b"},
		Features:  []string{"f1", "f2"},
		Rows:      [][]float64{{0.5, -1}, {2, 3.75}},
	}
	var sb strings.Builder
	if err := WriteMatrix(&sb, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMatrix(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	for i := range orig.Rows {
		for j := range orig.Rows[i] {
			if back.Rows[i][j] != orig.Rows[i][j] {
				t.Fatalf("round trip mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestBlankLinesSkipped(t *testing.T) {
	in := "workload,score\n\nalpha,1\n\nbeta,2\n"
	s, err := ReadScores(strings.NewReader(in))
	if err != nil || len(s.Values) != 2 {
		t.Fatalf("parsed %+v, %v", s, err)
	}
}

func TestRowsForFollowsScoreOrder(t *testing.T) {
	m := Matrix{
		Workloads: []string{"a", "b", "c"},
		Features:  []string{"f"},
		Rows:      [][]float64{{1}, {2}, {3}},
	}
	rows, err := m.RowsFor([]string{"c", "a"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0][0] != 3 || rows[1][0] != 1 {
		t.Fatalf("rows = %v, want [[3] [1]]", rows)
	}
	_, err = m.RowsFor([]string{"a", "zeta"})
	if err == nil || err.Error() != `workload "zeta" has a score but no characterization row` {
		t.Fatalf("missing row: err = %v", err)
	}
}
