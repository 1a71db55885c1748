package core

import (
	"context"
	"errors"
	"fmt"

	"hmeans/internal/chars"
	"hmeans/internal/cluster"
	"hmeans/internal/obs"
	"hmeans/internal/som"
	"hmeans/internal/vecmath"
)

// CharKind tells the pipeline which preprocessing recipe a
// characterization table needs.
type CharKind int

const (
	// Counters marks continuous measurements (SAR-style): constant
	// features are dropped, the rest standardized.
	Counters CharKind = iota
	// Bits marks usage bit vectors (hprof-style): single-user and
	// universal features are dropped, the rest standardized.
	Bits
)

// PipelineConfig configures the full cluster-detection pipeline of
// the paper's Section III: characterization preprocessing → SOM
// dimension reduction → hierarchical clustering of the SOM positions.
type PipelineConfig struct {
	// Kind selects the preprocessing recipe.
	Kind CharKind
	// SOM configures the dimension-reduction map. Zero values take
	// the package defaults.
	SOM som.Config
	// Linkage is the cluster-to-cluster distance (default Complete,
	// the paper's choice).
	Linkage cluster.Linkage
	// LinkageAlgorithm is ignored: there is one agglomeration
	// algorithm.
	//
	// Deprecated: kept only because perfbench/replay.go sets it; it
	// goes with the next benchmark change.
	LinkageAlgorithm cluster.Algorithm
	// Metric is the point-to-point distance (default Euclidean, the
	// paper's choice).
	Metric vecmath.Metric
	// SkipSOM clusters the preprocessed characteristic vectors
	// directly instead of their SOM positions — the PCA-free ablation
	// baseline.
	SkipSOM bool
	// SoftPlacement clusters the SOM's interpolated (inverse-
	// distance-weighted) positions instead of hard BMU cells. Soft
	// positions vary continuously, so two workloads that share a BMU
	// cell keep a small non-zero distance instead of collapsing to
	// exactly zero — useful when the downstream analysis needs
	// within-cell structure. Ignored with SkipSOM.
	SoftPlacement bool
	// Parallelism is ignored: the pipeline runs on one goroutine.
	//
	// Deprecated: kept only because perfbench/replay.go sets it; it
	// goes with the next benchmark change.
	Parallelism int
	// Quarantine enables graceful degradation: workloads carrying
	// non-finite characterization values are dropped (and recorded in
	// Pipeline.Quarantined and the obs trace) instead of failing the
	// whole run, and the pipeline clusters the survivors. Without it
	// a non-finite value is a typed *DataError wrapping ErrNonFinite.
	Quarantine bool
	// Obs receives the pipeline trace: a root "pipeline" span with
	// one child span per stage (validate, characterize, reduce,
	// cluster), and "cut"/"means" spans from the scoring methods of
	// the returned Pipeline. Nil falls back to the process-default
	// observer; instrumentation never changes any result.
	Obs *obs.Observer
}

// Pipeline is the result of cluster detection over one
// characterization: everything downstream scoring needs, plus the
// intermediate artifacts the paper visualizes (SOM map, dendrogram).
type Pipeline struct {
	// Workloads names the rows, in score order.
	Workloads []string
	// Prepared is the preprocessed characterization table.
	Prepared *chars.Table
	// Report describes what preprocessing dropped.
	Report chars.Report
	// Map is the trained SOM (nil when SkipSOM was set).
	Map *som.Map
	// Positions are the per-workload points handed to clustering
	// (SOM grid positions, or raw vectors when SkipSOM).
	Positions []vecmath.Vector
	// Dendrogram is the hierarchical clustering of Positions.
	Dendrogram *cluster.Dendrogram
	// Quarantined lists the workloads dropped by quarantine mode, in
	// original row order. Empty unless PipelineConfig.Quarantine was
	// set and the input contained non-finite rows.
	Quarantined []Quarantine

	// kept maps each surviving row to its index in the original
	// table; nil when nothing was quarantined.
	kept []int
	// originalN is the row count of the input table, before
	// quarantine.
	originalN int

	// obs is the observer the pipeline was built with; the scoring
	// methods record their cut/means spans against it.
	obs *obs.Observer
}

// DetectClusters runs the paper's cluster-detection pipeline on a raw
// characterization table.
func DetectClusters(table *chars.Table, cfg PipelineConfig) (*Pipeline, error) {
	return DetectClustersCtx(context.Background(), table, cfg)
}

// DetectClustersCtx is DetectClusters with cooperative cancellation:
// the context is checked between stages, every few hundred SOM
// training steps and between linkage merge steps, so a cancel or
// deadline stops the pipeline promptly without abandoning goroutines.
// A context that never fires yields results bit-identical to
// DetectClusters.
func DetectClustersCtx(ctx context.Context, table *chars.Table, cfg PipelineConfig) (*Pipeline, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if table == nil || len(table.Rows) == 0 {
		return nil, errors.New("core: empty characterization table")
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: pipeline cancelled: %w", err)
	}
	o := obs.Or(cfg.Obs)
	if o.Active() {
		// Deferred before root.End so the stop-the-world memory read
		// runs after the root span closes, not as an untraced tail
		// inside it.
		defer o.Metrics().CaptureMemStats()
	}
	root := o.StartSpan("pipeline",
		obs.KV("workloads", len(table.Rows)),
		obs.KV("skip_som", cfg.SkipSOM),
		obs.KV("version", obs.Version()))
	defer root.End()
	if o.Active() {
		o.Metrics().Counter("pipeline.runs").Add(1)
	}
	// Stage-boundary gauges: pipeline.stage counts entered stages
	// (1=validate … 4=cluster) and pipeline.progress is the completed
	// fraction, so a /metrics scrape of a long run shows where it is.
	// The cluster stage refines pipeline.progress's last quarter with
	// its own cluster.progress merge-fraction gauge.
	const pipelineStages = 4
	stage := func(entered int) {
		if o.Active() {
			o.Metrics().Gauge("pipeline.stage").Set(float64(entered))
			o.Metrics().Gauge("pipeline.progress").Set(float64(entered-1) / pipelineStages)
		}
	}
	originalN := len(table.Rows)
	stage(1)
	vsp := root.Child("validate", obs.KV("quarantine", cfg.Quarantine))
	var quarantined []Quarantine
	var kept []int
	if cfg.Quarantine {
		table, quarantined, kept = quarantineSplit(table)
		for _, q := range quarantined {
			vsp.Event("pipeline.quarantine",
				obs.KV("workload", q.Workload),
				obs.KV("index", q.Index),
				obs.KV("reason", q.Reason))
		}
		if o.Active() && len(quarantined) > 0 {
			o.Metrics().Counter("pipeline.quarantined").Add(int64(len(quarantined)))
		}
		vsp.SetAttr("quarantined", len(quarantined))
		if len(table.Rows) == 0 {
			vsp.End()
			return nil, fmt.Errorf("core: every workload quarantined: %w",
				&DataError{Index: -1, Err: ErrNonFinite})
		}
	} else if err := ValidateTable(table); err != nil {
		vsp.End()
		return nil, err
	}
	vsp.End()
	p := &Pipeline{
		Workloads:   append([]string(nil), table.Workloads...),
		Quarantined: quarantined,
		kept:        kept,
		originalN:   originalN,
		obs:         o,
	}
	stage(2)
	sp := root.Child("characterize")
	switch cfg.Kind {
	case Bits:
		p.Prepared, p.Report = chars.PreprocessBits(table)
	default:
		p.Prepared, p.Report = chars.PreprocessCounters(table)
	}
	sp.SetAttr("features_kept", len(p.Prepared.Features))
	sp.SetAttr("features_dropped",
		len(p.Report.DroppedConstant)+len(p.Report.DroppedSingleUser)+len(p.Report.DroppedUniversal))
	sp.End()
	if len(p.Prepared.Features) == 0 {
		return nil, fmt.Errorf("core: preprocessing discarded every feature; nothing to cluster on: %w",
			&DataError{Index: -1, Err: ErrZeroVariance})
	}
	// Finite input can still overflow standardization: a column's
	// variance or a deviation past the float64 range turns its
	// z-scores into NaN, which is invalid input, not a map to train.
	if err := ValidateTable(p.Prepared); err != nil {
		return nil, fmt.Errorf("core: standardization overflowed: %w", err)
	}
	vectors := p.Prepared.Vectors()
	stage(3)
	sp = root.Child("reduce")
	if cfg.SkipSOM {
		p.Positions = vectors
		sp.SetAttr("skipped", true)
		sp.End()
	} else {
		if cfg.SOM.Rows == 0 && cfg.SOM.Cols == 0 {
			// Size the grid to the sample count (≈5√n units): large
			// fixed grids magnify tight workload blobs across many
			// cells and destabilize the downstream clustering.
			cfg.SOM.Rows, cfg.SOM.Cols = som.GridFor(len(vectors))
		}
		if cfg.SOM.Obs == nil {
			cfg.SOM.Obs = o
		}
		m, err := som.TrainCtx(ctx, cfg.SOM, vectors)
		if err != nil {
			sp.End()
			return nil, fmt.Errorf("core: SOM training: %w", err)
		}
		p.Map = m
		if cfg.SoftPlacement {
			p.Positions = m.SoftPlacements(vectors)
		} else {
			p.Positions = m.Placements(vectors)
		}
		sp.SetAttr("grid", fmt.Sprintf("%dx%d", m.Rows(), m.Cols()))
		sp.End()
	}
	stage(4)
	sp = root.Child("cluster", obs.KV("points", len(p.Positions)))
	d, err := cluster.NewDendrogramOpts(p.Positions, cfg.Metric, cfg.Linkage, cluster.Options{Obs: o, Ctx: ctx})
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("core: clustering: %w", err)
	}
	p.Dendrogram = d
	if o.Active() {
		o.Metrics().Gauge("pipeline.progress").Set(1)
	}
	return p, nil
}

// ClusteringAtK cuts the pipeline's dendrogram into exactly k
// clusters and returns it as a scoring Clustering.
func (p *Pipeline) ClusteringAtK(k int) (Clustering, error) {
	sp := p.obs.StartSpan("cut", obs.KV("k", k))
	defer sp.End()
	a, err := p.Dendrogram.CutK(k)
	if err != nil {
		return Clustering{}, err
	}
	return Clustering{Labels: a.Labels, K: a.K}, nil
}

// ClusteringAtDistance cuts the dendrogram at a merging distance.
func (p *Pipeline) ClusteringAtDistance(d float64) Clustering {
	sp := p.obs.StartSpan("cut", obs.KV("distance", d))
	defer sp.End()
	a := p.Dendrogram.CutDistance(d)
	return Clustering{Labels: a.Labels, K: a.K}
}

// AlignScores maps a score vector onto the pipeline's surviving
// workloads. After a quarantine it accepts either a full-length
// vector (one score per original row, quarantined included — those
// entries are dropped) or one already aligned to the survivors;
// without quarantine the input must match the workload count. The
// returned slice is safe to hand to the scoring methods.
func (p *Pipeline) AlignScores(scores []float64) ([]float64, error) {
	if len(scores) == len(p.Workloads) {
		return scores, nil
	}
	if len(p.kept) > 0 && len(scores) == p.originalN {
		out := make([]float64, len(p.kept))
		for i, idx := range p.kept {
			out[i] = scores[idx]
		}
		return out, nil
	}
	if p.originalN != len(p.Workloads) {
		return nil, fmt.Errorf("core: %d scores for %d surviving workloads (%d before quarantine)",
			len(scores), len(p.Workloads), p.originalN)
	}
	return nil, fmt.Errorf("core: %d scores for %d workloads", len(scores), len(p.Workloads))
}

// ScoreAtK computes the hierarchical mean of the scores under the
// k-cluster cut. Scores for quarantined workloads are dropped via
// AlignScores.
func (p *Pipeline) ScoreAtK(kind MeanKind, scores []float64, k int) (float64, error) {
	scores, err := p.AlignScores(scores)
	if err != nil {
		return 0, err
	}
	c, err := p.ClusteringAtK(k)
	if err != nil {
		return 0, err
	}
	sp := p.obs.StartSpan("means", obs.KV("kind", kind.String()), obs.KV("k", k))
	defer sp.End()
	return HierarchicalMean(kind, scores, c)
}

// ScoreSweep computes the hierarchical mean for every k in
// [kMin, kMax] (clamped to the valid range), the sweep of the paper's
// Tables IV–VI, on one walk of the dendrogram's cuts. Each value
// equals ScoreAtK's. The returned map is keyed by k.
func (p *Pipeline) ScoreSweep(kind MeanKind, scores []float64, kMin, kMax int) (map[int]float64, error) {
	if kMin > kMax {
		return nil, fmt.Errorf("core: empty sweep range [%d, %d]", kMin, kMax)
	}
	scores, err := p.AlignScores(scores)
	if err != nil {
		return nil, err
	}
	out := make(map[int]float64)
	var sc Scorer
	err = p.Dendrogram.EachCut(kMin, kMax, func(cut cluster.Assignment) error {
		if err := sc.Reset(Clustering{Labels: cut.Labels, K: cut.K}); err != nil {
			return err
		}
		s, err := sc.Mean(kind, scores)
		if err != nil {
			return err
		}
		out[cut.K] = s
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ClusterMembers returns, for a k-cut, the workload names per
// cluster.
func (p *Pipeline) ClusterMembers(k int) ([][]string, error) {
	a, err := p.Dendrogram.CutK(k)
	if err != nil {
		return nil, err
	}
	out := make([][]string, a.K)
	for i, l := range a.Labels {
		out[l] = append(out[l], p.Workloads[i])
	}
	return out, nil
}
