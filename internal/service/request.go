// Package service turns the batch cluster-detection pipeline into a
// long-running scoring service: an HTTP JSON API that accepts a
// characterization table plus named score vectors and returns the
// full pipeline result (SOM positions, dendrogram, recommended cut,
// hierarchical means per k).
//
// The layer adds three things the batch CLIs do not need:
//
//   - a content-addressed result cache keyed by the SHA-256 of the
//     canonicalized request, with singleflight-style coalescing so
//     identical in-flight requests train the SOM once;
//   - a bounded worker pool with queueing and backpressure (429 +
//     Retry-After on overflow) and per-request compute deadlines via
//     core.DetectClustersCtx;
//   - the PR 2/3 conventions end to end: one obs span per request,
//     cache and queue counters on /metrics, and the typed error
//     taxonomy mapped to HTTP statuses the way the CLIs map it to
//     exit codes (invalid input → 400, timeout → 504, internal → 500).
package service

import (
	"fmt"
	"sort"

	"hmeans/internal/chars"
	"hmeans/internal/cluster"
	"hmeans/internal/core"
)

// Request is the JSON body of POST /v1/score: one characterization
// table, any number of named score vectors, and the pipeline knobs
// that change results.
type Request struct {
	// Table is the raw characterization matrix.
	Table TableJSON `json:"table"`
	// Scores maps vector names (machine ids) to per-workload scores,
	// aligned with Table.Workloads. May be empty: the response then
	// carries only the geometry (SOM, dendrogram, recommended cut).
	Scores map[string][]float64 `json:"scores,omitempty"`
	// Config selects the result-changing pipeline options.
	Config ConfigJSON `json:"config"`
	// K fixes the reported cut. 0 means "cut at the recommended k".
	K int `json:"k,omitempty"`
	// KMin/KMax bound the sweep of per-k means and the recommendation
	// range. Zero values default to 2 and the workload count.
	KMin int `json:"k_min,omitempty"`
	KMax int `json:"k_max,omitempty"`
}

// TableJSON is the wire form of a characterization table.
type TableJSON struct {
	Workloads []string    `json:"workloads"`
	Features  []string    `json:"features"`
	Rows      [][]float64 `json:"rows"`
}

// ConfigJSON is the wire form of the result-changing subset of
// core.PipelineConfig.
type ConfigJSON struct {
	// Kind is the preprocessing recipe: "counters" (default) or
	// "bits".
	Kind string `json:"kind,omitempty"`
	// Seed seeds SOM training. 0 takes the som package default.
	Seed uint64 `json:"seed,omitempty"`
	// SkipSOM clusters the preprocessed vectors directly.
	SkipSOM bool `json:"skip_som,omitempty"`
	// SoftPlacement clusters interpolated SOM positions instead of
	// hard BMU cells.
	SoftPlacement bool `json:"soft_placement,omitempty"`
	// Quarantine drops non-finite workloads instead of failing.
	// (JSON cannot express NaN/Inf, so this only matters to callers
	// constructing Requests in-process.)
	Quarantine bool `json:"quarantine,omitempty"`
}

// Response is the JSON body of a successful score: the full pipeline
// result. Field order and slice ordering are fixed (vector names
// sorted, means sorted by k then vector) so that encoding a Response
// is deterministic — the property the content-addressed cache relies
// on to make hits bit-identical to cold-path responses.
type Response struct {
	// Workloads are the surviving rows, in score order.
	Workloads []string `json:"workloads"`
	// SOM describes the trained map; nil when skip_som was set.
	SOM *SOMJSON `json:"som,omitempty"`
	// Positions are the clustered points (SOM grid positions, or the
	// preprocessed vectors when skip_som).
	Positions [][]float64 `json:"positions"`
	// Dendrogram is the full merge tree.
	Dendrogram DendrogramJSON `json:"dendrogram"`
	// RecommendedK is the geometric (and, with ≥2 score vectors,
	// ratio-damped) cluster-count recommendation.
	RecommendedK int `json:"recommended_k"`
	// Cut is the reported clustering: at Request.K when fixed,
	// otherwise at RecommendedK.
	Cut CutJSON `json:"cut"`
	// Means holds the hierarchical means for every vector and every k
	// in the sweep range, sorted by (k, vector).
	Means []KMeans `json:"means,omitempty"`
	// Plain holds the flat means per vector, sorted by vector.
	Plain []PlainMeans `json:"plain,omitempty"`
	// Quarantined lists dropped workloads (quarantine mode only).
	Quarantined []QuarantineJSON `json:"quarantined,omitempty"`
}

// SOMJSON describes the trained map's geometry.
type SOMJSON struct {
	Rows int `json:"rows"`
	Cols int `json:"cols"`
}

// DendrogramJSON is the wire form of the merge tree.
type DendrogramJSON struct {
	N       int         `json:"n"`
	Linkage string      `json:"linkage"`
	Merges  []MergeJSON `json:"merges"`
}

// MergeJSON is one agglomeration step.
type MergeJSON struct {
	A        int     `json:"a"`
	B        int     `json:"b"`
	Distance float64 `json:"distance"`
	Size     int     `json:"size"`
}

// CutJSON is the reported clustering.
type CutJSON struct {
	K int `json:"k"`
	// Labels assigns each workload (in Workloads order) a cluster.
	Labels []int `json:"labels"`
	// Members lists workload names per cluster label.
	Members [][]string `json:"members"`
}

// KMeans bundles the three hierarchical means of one score vector at
// one cut.
type KMeans struct {
	K      int     `json:"k"`
	Vector string  `json:"vector"`
	HGM    float64 `json:"hgm"`
	HAM    float64 `json:"ham"`
	HHM    float64 `json:"hhm"`
}

// PlainMeans bundles the flat means of one score vector.
type PlainMeans struct {
	Vector string  `json:"vector"`
	GM     float64 `json:"gm"`
	AM     float64 `json:"am"`
	HM     float64 `json:"hm"`
}

// QuarantineJSON records one dropped workload.
type QuarantineJSON struct {
	Workload string `json:"workload"`
	Index    int    `json:"index"`
	Reason   string `json:"reason"`
}

// Validate checks everything about a Request that can be rejected
// before any computation: table shape, score vector alignment and
// finiteness, sweep bounds. Violations are *BadRequestError (→ 400).
func (r *Request) Validate() error {
	n := len(r.Table.Workloads)
	if n == 0 {
		return badRequestf("table has no workloads")
	}
	if len(r.Table.Features) == 0 {
		return badRequestf("table has no features")
	}
	if len(r.Table.Rows) != n {
		return badRequestf("table has %d rows for %d workloads", len(r.Table.Rows), n)
	}
	for i, row := range r.Table.Rows {
		if len(row) != len(r.Table.Features) {
			return badRequestf("row %d (%s) has %d values for %d features",
				i, r.Table.Workloads[i], len(row), len(r.Table.Features))
		}
	}
	for _, name := range r.vectorNames() {
		v := r.Scores[name]
		if len(v) != n {
			return badRequestf("score vector %q has %d scores for %d workloads", name, len(v), n)
		}
		if !r.Config.Quarantine {
			if err := core.ValidateScores(v); err != nil {
				return badRequestf("score vector %q: %v", name, err)
			}
		}
	}
	switch r.Config.Kind {
	case "", "counters", "bits":
	default:
		return badRequestf("unknown characterization kind %q (want counters or bits)", r.Config.Kind)
	}
	if r.K < 0 || r.KMin < 0 || r.KMax < 0 {
		return badRequestf("k, k_min and k_max must be >= 0")
	}
	if r.KMin > 0 && r.KMax > 0 && r.KMin > r.KMax {
		return badRequestf("empty sweep range [%d, %d]", r.KMin, r.KMax)
	}
	if r.K > n {
		return badRequestf("k=%d exceeds the %d workloads", r.K, n)
	}
	return nil
}

// vectorNames returns the score vector names in sorted order — the
// iteration order used everywhere (canonicalization, sweep, response
// assembly) so that identical requests produce identical bytes.
func (r *Request) vectorNames() []string {
	names := make([]string, 0, len(r.Scores))
	for name := range r.Scores {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// kind maps the wire kind to the core enum.
func (r *Request) kind() core.CharKind {
	if r.Config.Kind == "bits" {
		return core.Bits
	}
	return core.Counters
}

// pipelineConfig assembles the core config for this request.
func (r *Request) pipelineConfig() core.PipelineConfig {
	cfg := core.PipelineConfig{
		Kind:       r.kind(),
		Quarantine: r.Config.Quarantine,
		SkipSOM:    r.Config.SkipSOM,
	}
	cfg.SoftPlacement = r.Config.SoftPlacement
	cfg.SOM.Seed = r.Config.Seed
	return cfg
}

// sweepRange resolves the requested sweep bounds against the
// surviving workload count.
func (r *Request) sweepRange(n int) (kMin, kMax int) {
	kMin, kMax = r.KMin, r.KMax
	if kMin < 2 {
		kMin = 2
	}
	if kMax == 0 || kMax > n {
		kMax = n
	}
	return kMin, kMax
}

// BadRequestError marks a request the service refuses before (or
// without) running the pipeline — the HTTP analogue of
// cliutil.UsageError.
type BadRequestError struct{ msg string }

func badRequestf(format string, args ...any) *BadRequestError {
	return &BadRequestError{msg: fmt.Sprintf(format, args...)}
}

// Error returns the message.
func (e *BadRequestError) Error() string { return e.msg }

// table converts the wire table into a validated chars.Table.
func (r *Request) table() (*chars.Table, error) {
	t, err := chars.NewTable(r.Table.Workloads, r.Table.Features, r.Table.Rows)
	if err != nil {
		return nil, badRequestf("invalid table: %v", err)
	}
	return t, nil
}

// dendrogramJSON flattens a merge tree for the wire.
func dendrogramJSON(d *cluster.Dendrogram) DendrogramJSON {
	merges := d.Merges()
	out := DendrogramJSON{N: d.Len(), Linkage: d.Linkage().String(), Merges: make([]MergeJSON, len(merges))}
	for i, m := range merges {
		out.Merges[i] = MergeJSON{A: m.A, B: m.B, Distance: m.Distance, Size: m.Size}
	}
	return out
}
