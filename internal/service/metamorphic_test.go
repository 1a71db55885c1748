package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"testing"
)

// scaledColumn returns a copy of req with counter column j multiplied
// by f; req is unchanged.
func scaledColumn(req *Request, j int, f float64) *Request {
	out := *req
	out.Table.Rows = make([][]float64, len(req.Table.Rows))
	for i, row := range req.Table.Rows {
		out.Table.Rows[i] = slices.Clone(row)
		out.Table.Rows[i][j] *= f
	}
	return &out
}

// TestScoreInvariantToCounterScale: Server.Score does not depend on
// the scale of one counter column; only the content key moves.
// Scaling by a power of two commutes exactly with z-standardization
// (the column's mean and standard deviation scale by the same power),
// so the response is byte-identical. Any other factor can move the
// standardized column in its last bits, so it must keep the structure:
// the recommended k, the cut labels and the merges. The column is the
// seed modulo the feature count.
func TestScoreInvariantToCounterScale(t *testing.T) {
	srv := New(Config{})
	score := func(name string, req *Request) ([]byte, *Response) {
		t.Helper()
		raw, _, err := srv.Score(context.Background(), req)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		resp := new(Response)
		if err := json.Unmarshal(raw, resp); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return raw, resp
	}
	for _, in := range []struct {
		name  string
		req   func(seed uint64) *Request
		seeds uint64
	}{
		{"case study", func(seed uint64) *Request { return caseStudyRequest(t, seed) }, 6},
		{"suite n=200", func(seed uint64) *Request { return suiteRequest(200, seed) }, 1},
	} {
		for seed := uint64(1); seed <= in.seeds; seed++ {
			base := in.req(seed)
			col := int(seed % uint64(len(base.Table.Features)))
			want, wantResp := score(in.name, base)
			for _, f := range []float64{1 << 7, 3.3} {
				scaled := scaledColumn(base, col, f)
				if scaled.CacheKey() == base.CacheKey() {
					t.Fatalf("%s seed %d: column %d ×%g kept the content key", in.name, seed, col, f)
				}
				got, gotResp := score(in.name, scaled)
				if f == 1<<7 {
					if !bytes.Equal(got, want) {
						t.Errorf("%s seed %d: column %d ×%g changed the response", in.name, seed, col, f)
					}
					continue
				}
				if gotResp.RecommendedK != wantResp.RecommendedK ||
					!slices.Equal(gotResp.Cut.Labels, wantResp.Cut.Labels) ||
					!slices.Equal(gotResp.Dendrogram.Merges, wantResp.Dendrogram.Merges) {
					t.Errorf("%s seed %d: column %d ×%g changed the clustering: k %d → %d",
						in.name, seed, col, f, wantResp.RecommendedK, gotResp.RecommendedK)
				}
			}
		}
	}
}

// withClone returns a copy of req with workload v listed again under a
// new name: its counter row and its value in every score vector; req
// is unchanged.
func withClone(req *Request, v int) *Request {
	out := *req
	out.Table.Workloads = append(slices.Clone(req.Table.Workloads), req.Table.Workloads[v]+"-clone")
	out.Table.Rows = append(slices.Clone(req.Table.Rows), slices.Clone(req.Table.Rows[v]))
	out.Scores = make(map[string][]float64, len(req.Scores))
	for name, s := range req.Scores {
		out.Scores[name] = append(slices.Clone(s), s[v])
	}
	return &out
}

// cutLabels replays the first N−k merges of a wire dendrogram and
// labels each leaf with the id of its cluster at k clusters.
func cutLabels(d DendrogramJSON, k int) []int {
	parent := make([]int, 2*d.N-1)
	for i := range parent {
		parent[i] = i
	}
	for s, m := range d.Merges[:d.N-k] {
		parent[m.A], parent[m.B] = d.N+s, d.N+s
	}
	labels := make([]int, d.N)
	for i := range labels {
		c := i
		for parent[c] != c {
			c = parent[c]
		}
		labels[i] = c
	}
	return labels
}

// TestScoreCloneSharesCell is the paper's redundancy case through the
// whole pipeline: a workload submitted twice, row and scores, lands on
// its original's SOM cell. Every linkage here merges a cell's
// coincident positions at height 0 before any two cells, so at every
// k ≤ D, the number of distinct cells, each cluster is a union of
// whole cells, and the copy shares its original's cluster. Checked
// on the case study (both score vectors) and a 200-workload synthetic
// suite at SOM seeds 1–20, cloning a different workload per seed.
func TestScoreCloneSharesCell(t *testing.T) {
	srv := New(Config{})
	for _, in := range []struct {
		name string
		req  func(seed uint64) *Request
	}{
		{"case study", func(seed uint64) *Request { return caseStudyRequest(t, seed) }},
		{"suite n=200", func(seed uint64) *Request { return suiteRequest(200, seed) }},
	} {
		for seed := uint64(1); seed <= 20; seed++ {
			base := in.req(seed)
			n := len(base.Table.Rows)
			v := int(seed*7) % n
			raw, _, err := srv.Score(context.Background(), withClone(base, v))
			if err != nil {
				t.Fatalf("%s seed %d: %v", in.name, seed, err)
			}
			resp := new(Response)
			if err := json.Unmarshal(raw, resp); err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%s seed %d clone of %d", in.name, seed, v)
			if len(resp.Positions) != n+1 || resp.Dendrogram.N != n+1 {
				t.Fatalf("%s: %d positions, dendrogram of %d, want %d", label, len(resp.Positions), resp.Dendrogram.N, n+1)
			}
			if !slices.Equal(resp.Positions[n], resp.Positions[v]) {
				t.Fatalf("%s: copy on cell %v, original on %v", label, resp.Positions[n], resp.Positions[v])
			}
			cellID := make(map[[2]float64]int)
			cells := make([]int, n+1)
			for i, p := range resp.Positions {
				key := [2]float64{p[0], p[1]}
				if _, ok := cellID[key]; !ok {
					cellID[key] = len(cellID)
				}
				cells[i] = cellID[key]
			}
			d := len(cellID)
			for k := 1; k <= d; k++ {
				labels := cutLabels(resp.Dendrogram, k)
				if labels[n] != labels[v] {
					t.Fatalf("%s: k=%d ≤ D=%d puts the copy in cluster %d, the original in %d", label, k, d, labels[n], labels[v])
				}
				cellLabel := make([]int, d)
				for i := range cellLabel {
					cellLabel[i] = -1
				}
				for i, c := range cells {
					if cellLabel[c] == -1 {
						cellLabel[c] = labels[i]
					} else if cellLabel[c] != labels[i] {
						t.Fatalf("%s: k=%d ≤ D=%d splits a SOM cell across clusters %d and %d", label, k, d, cellLabel[c], labels[i])
					}
				}
			}
		}
	}
}
