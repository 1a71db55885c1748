// Package dataio reads and writes the CSV formats the command-line
// tools exchange: score vectors, cluster assignments and
// characterization matrices.
package dataio

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Scores is a named score vector (workload → score).
type Scores struct {
	Workloads []string
	Values    []float64
}

// ReadScores parses a two-column CSV "workload,score" with an
// optional header row (detected when the second field of the first
// row is not numeric).
func ReadScores(r io.Reader) (Scores, error) {
	var out Scores
	records, err := readAll(r, 2)
	if err != nil {
		return out, err
	}
	for i, rec := range records {
		v, err := strconv.ParseFloat(strings.TrimSpace(rec[1]), 64)
		if err != nil {
			if i == 0 {
				continue // header
			}
			return out, fmt.Errorf("dataio: row %d: bad score %q", i+1, rec[1])
		}
		out.Workloads = append(out.Workloads, strings.TrimSpace(rec[0]))
		out.Values = append(out.Values, v)
	}
	if len(out.Values) == 0 {
		return out, errors.New("dataio: no scores found")
	}
	return out, nil
}

// WriteScores writes "workload,score" rows with a header.
func WriteScores(w io.Writer, s Scores) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"workload", "score"}); err != nil {
		return err
	}
	for i, name := range s.Workloads {
		if err := cw.Write([]string{name, strconv.FormatFloat(s.Values[i], 'g', -1, 64)}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Clusters maps workload names to cluster labels.
type Clusters struct {
	Workloads []string
	Labels    []int
}

// ReadClusters parses a two-column CSV "workload,cluster" with an
// optional header.
func ReadClusters(r io.Reader) (Clusters, error) {
	var out Clusters
	records, err := readAll(r, 2)
	if err != nil {
		return out, err
	}
	for i, rec := range records {
		v, err := strconv.Atoi(strings.TrimSpace(rec[1]))
		if err != nil {
			if i == 0 {
				continue // header
			}
			return out, fmt.Errorf("dataio: row %d: bad cluster label %q", i+1, rec[1])
		}
		out.Workloads = append(out.Workloads, strings.TrimSpace(rec[0]))
		out.Labels = append(out.Labels, v)
	}
	if len(out.Labels) == 0 {
		return out, errors.New("dataio: no cluster assignments found")
	}
	return out, nil
}

// Matrix is a named characterization matrix: first CSV column is the
// workload name, the header row names the features.
type Matrix struct {
	Workloads []string
	Features  []string
	Rows      [][]float64
}

// ReadMatrix parses a characterization CSV. The first row must be a
// header ("workload,feat1,feat2,..."); every subsequent row is a
// workload.
func ReadMatrix(r io.Reader) (Matrix, error) {
	var out Matrix
	records, err := readAll(r, 2)
	if err != nil {
		return out, err
	}
	if len(records) < 2 {
		return out, errors.New("dataio: matrix needs a header and at least one workload row")
	}
	out.Features = make([]string, len(records[0])-1)
	for j, f := range records[0][1:] {
		out.Features[j] = strings.TrimSpace(f)
	}
	for i, rec := range records[1:] {
		if len(rec) != len(records[0]) {
			return out, fmt.Errorf("dataio: row %d has %d fields, header has %d", i+2, len(rec), len(records[0]))
		}
		row := make([]float64, len(rec)-1)
		for j, cell := range rec[1:] {
			v, err := strconv.ParseFloat(strings.TrimSpace(cell), 64)
			if err != nil {
				return out, fmt.Errorf("dataio: row %d, column %s: bad value %q", i+2, out.Features[j], cell)
			}
			row[j] = v
		}
		out.Workloads = append(out.Workloads, strings.TrimSpace(rec[0]))
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// RowsFor returns the matrix rows in the order of workloads — the
// order of a score vector, which is how every tool pairs a
// characterization with its scores. A workload without a row is an
// error; rows for workloads not asked for are ignored.
func (m Matrix) RowsFor(workloads []string) ([][]float64, error) {
	rowOf := make(map[string][]float64, len(m.Workloads))
	for i, name := range m.Workloads {
		rowOf[name] = m.Rows[i]
	}
	rows := make([][]float64, len(workloads))
	for i, name := range workloads {
		row, ok := rowOf[name]
		if !ok {
			return nil, fmt.Errorf("workload %q has a score but no characterization row", name)
		}
		rows[i] = row
	}
	return rows, nil
}

// WriteMatrix writes a characterization matrix with a header row.
func WriteMatrix(w io.Writer, m Matrix) error {
	cw := csv.NewWriter(w)
	header := append([]string{"workload"}, m.Features...)
	if err := cw.Write(header); err != nil {
		return err
	}
	for i, name := range m.Workloads {
		rec := make([]string, 0, len(m.Rows[i])+1)
		rec = append(rec, name)
		for _, v := range m.Rows[i] {
			rec = append(rec, strconv.FormatFloat(v, 'g', -1, 64))
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func readAll(r io.Reader, minFields int) ([][]string, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	cr.TrimLeadingSpace = true
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("dataio: %w", err)
	}
	var out [][]string
	for _, rec := range records {
		if len(rec) == 0 || (len(rec) == 1 && strings.TrimSpace(rec[0]) == "") {
			continue
		}
		if len(rec) < minFields {
			return nil, fmt.Errorf("dataio: row %q has fewer than %d fields", strings.Join(rec, ","), minFields)
		}
		out = append(out, rec)
	}
	return out, nil
}
