// Command hmeans computes benchmark-suite scores with the
// hierarchical means.
//
// Two modes:
//
// With a precomputed clustering:
//
//	hmeans -scores scores.csv -clusters clusters.csv [-mean geometric]
//
// With a characterization matrix (the full pipeline — preprocessing,
// SOM, hierarchical clustering — detects the clusters):
//
//	hmeans -scores scores.csv -chars counters.csv [-kind counters|bits] [-k 6]
//
// Omitting -k with -chars prints the hierarchical mean for every
// cluster count from 2 to n alongside the plain mean.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"hmeans"
	"hmeans/internal/cliutil"
	"hmeans/internal/dataio"
	"hmeans/internal/obs"
	"hmeans/internal/som"
	"hmeans/internal/viz"
)

func main() {
	os.Exit(cliutil.Run("hmeans", os.Stderr, func() error {
		return run(os.Args[1:], os.Stdout)
	}))
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("hmeans", flag.ContinueOnError)
	var (
		scoresPath   = fs.String("scores", "", "CSV of workload,score (required)")
		clustersPath = fs.String("clusters", "", "CSV of workload,cluster-label")
		charsPath    = fs.String("chars", "", "CSV characterization matrix (header row names features)")
		kind         = fs.String("kind", "counters", "characterization kind: counters or bits")
		meanName     = fs.String("mean", "geometric", "mean family: geometric, arithmetic or harmonic")
		k            = fs.Int("k", 0, "cluster count to cut at (0 with -chars: sweep 2..n)")
		seed         = fs.Uint64("seed", 2007, "SOM training seed")
		quarantine   = fs.Bool("quarantine", false, "drop workloads with non-finite characterization values and score the survivors instead of failing")
	)
	timeout := cliutil.RegisterTimeout(fs)
	obsFlags := obs.RegisterFlags(fs)
	if err := cliutil.Parse(fs, args); err != nil {
		return err
	}
	if obsFlags.PrintVersion(stdout, "hmeans") {
		return nil
	}

	if *scoresPath == "" {
		return cliutil.Usagef("-scores is required")
	}
	if (*clustersPath == "") == (*charsPath == "") {
		return cliutil.Usagef("exactly one of -clusters or -chars is required")
	}
	sess, err := obsFlags.Start()
	if err != nil {
		return err
	}
	ctx, cancel := cliutil.WithTimeout(*timeout)
	defer cancel()
	err = score(ctx, scoreArgs{
		scoresPath:   *scoresPath,
		clustersPath: *clustersPath,
		charsPath:    *charsPath,
		kind:         *kind,
		meanName:     *meanName,
		k:            *k,
		seed:         *seed,
		quarantine:   *quarantine,
	}, stdout)
	if cerr := sess.Close(); err == nil {
		err = cerr
	}
	return err
}

// scoreArgs carries the parsed flag values into the scoring body,
// which runs inside the observability session.
type scoreArgs struct {
	scoresPath, clustersPath, charsPath string
	kind, meanName                      string
	k                                   int
	seed                                uint64
	quarantine                          bool
}

func score(ctx context.Context, a scoreArgs, stdout io.Writer) error {
	mean, err := parseMean(a.meanName)
	if err != nil {
		return err
	}
	scores, err := readScores(a.scoresPath)
	if err != nil {
		return err
	}
	// Quarantine mode tolerates (and drops) scores of quarantined
	// workloads, so strict score validation only applies without it.
	if !a.quarantine {
		if err := hmeans.ValidateScores(scores.Values); err != nil {
			return fmt.Errorf("%s: %w", a.scoresPath, err)
		}
	}
	if a.clustersPath != "" {
		plain, err := hmeans.PlainMean(mean, scores.Values)
		if err != nil {
			return err
		}
		c, err := readClustering(a.clustersPath, scores)
		if err != nil {
			return err
		}
		h, err := hmeans.HierarchicalMean(mean, scores.Values, c)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "hierarchical %s mean (%d clusters): %.4f\n", mean, c.K, h)
		fmt.Fprintf(stdout, "plain %s mean:                     %.4f\n", mean, plain)
		return nil
	}

	table, kindVal, err := readTable(a.charsPath, a.kind, scores)
	if err != nil {
		return err
	}
	p, err := hmeans.DetectClustersCtx(ctx, table, hmeans.PipelineConfig{
		Kind:       kindVal,
		SOM:        som.Config{Seed: a.seed},
		Quarantine: a.quarantine,
	})
	if err != nil {
		return err
	}
	for _, q := range p.Quarantined {
		fmt.Fprintf(stdout, "quarantined %s: %s\n", q.Workload, q.Reason)
	}
	// Align once: with quarantine active this drops the scores of the
	// quarantined workloads so both means cover the same survivors.
	aligned, err := p.AlignScores(scores.Values)
	if err != nil {
		return err
	}
	plain, err := hmeans.PlainMean(mean, aligned)
	if err != nil {
		return err
	}
	if a.k > 0 {
		h, err := p.ScoreAtK(mean, aligned, a.k)
		if err != nil {
			return err
		}
		members, err := p.ClusterMembers(a.k)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "hierarchical %s mean (k=%d): %.4f\n", mean, a.k, h)
		fmt.Fprintf(stdout, "plain %s mean:              %.4f\n", mean, plain)
		for label, ms := range members {
			fmt.Fprintf(stdout, "cluster %d: %v\n", label, ms)
		}
		return nil
	}
	t := viz.NewTable("k", "hierarchical", "plain")
	for kk := 2; kk <= len(aligned); kk++ {
		h, err := p.ScoreAtK(mean, aligned, kk)
		if err != nil {
			return err
		}
		if err := t.AddRowf(fmt.Sprintf("%d", kk), "%.4f", h, plain); err != nil {
			return err
		}
	}
	return t.Render(stdout)
}

func parseMean(name string) (hmeans.MeanKind, error) {
	switch name {
	case "geometric":
		return hmeans.Geometric, nil
	case "arithmetic":
		return hmeans.Arithmetic, nil
	case "harmonic":
		return hmeans.Harmonic, nil
	default:
		return 0, fmt.Errorf("unknown mean %q (want geometric, arithmetic or harmonic)", name)
	}
}

func readScores(path string) (dataio.Scores, error) {
	f, err := os.Open(path)
	if err != nil {
		return dataio.Scores{}, err
	}
	defer f.Close()
	return dataio.ReadScores(f)
}

// readClustering loads cluster labels and aligns them to the score
// order by workload name.
func readClustering(path string, scores dataio.Scores) (hmeans.Clustering, error) {
	f, err := os.Open(path)
	if err != nil {
		return hmeans.Clustering{}, err
	}
	defer f.Close()
	cl, err := dataio.ReadClusters(f)
	if err != nil {
		return hmeans.Clustering{}, err
	}
	byName := make(map[string]int, len(cl.Workloads))
	for i, name := range cl.Workloads {
		byName[name] = cl.Labels[i]
	}
	labels := make([]int, len(scores.Workloads))
	for i, name := range scores.Workloads {
		l, ok := byName[name]
		if !ok {
			return hmeans.Clustering{}, fmt.Errorf("workload %q has a score but no cluster", name)
		}
		labels[i] = l
	}
	return hmeans.NewClustering(labels)
}

// readTable loads a characterization matrix and aligns its rows to
// the score order.
func readTable(path, kind string, scores dataio.Scores) (*hmeans.Table, hmeans.CharKind, error) {
	var kindVal hmeans.CharKind
	switch kind {
	case "counters":
		kindVal = hmeans.Counters
	case "bits":
		kindVal = hmeans.Bits
	default:
		return nil, 0, fmt.Errorf("unknown characterization kind %q (want counters or bits)", kind)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	m, err := dataio.ReadMatrix(f)
	if err != nil {
		return nil, 0, err
	}
	rowOf := make(map[string][]float64, len(m.Workloads))
	for i, name := range m.Workloads {
		rowOf[name] = m.Rows[i]
	}
	rows := make([][]float64, len(scores.Workloads))
	for i, name := range scores.Workloads {
		row, ok := rowOf[name]
		if !ok {
			return nil, 0, fmt.Errorf("workload %q has a score but no characterization row", name)
		}
		rows[i] = row
	}
	t, err := hmeans.NewTable(scores.Workloads, m.Features, rows)
	return t, kindVal, err
}
