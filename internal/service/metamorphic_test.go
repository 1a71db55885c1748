package service

import (
	"bytes"
	"context"
	"encoding/json"
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
