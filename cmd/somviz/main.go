// Command somviz trains a self-organizing map on a characterization
// CSV and prints the workload map, the dendrogram of the reduced
// positions, and the cluster memberships at each cut — the textual
// equivalents of the paper's Figures 3-8.
//
//	benchsim -emit sar -machine A | somviz
//	somviz -in counters.csv -kind counters -rows 6 -cols 5
package main

import (
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
	os.Exit(cliutil.Run("somviz", os.Stderr, func() error {
		return run(os.Args[1:], os.Stdin, os.Stdout)
	}))
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("somviz", flag.ContinueOnError)
	var (
		inPath = fs.String("in", "", "characterization CSV (default stdin)")
		kind   = fs.String("kind", "counters", "characterization kind: counters or bits")
		rows   = fs.Int("rows", 0, "SOM grid rows (0 = size to sample count)")
		cols   = fs.Int("cols", 0, "SOM grid cols (0 = size to sample count)")
		seed   = fs.Uint64("seed", 2007, "SOM training seed")
		kMin   = fs.Int("kmin", 2, "smallest cut to list")
		kMax   = fs.Int("kmax", 8, "largest cut to list")
		plane  = fs.String("plane", "", "also render the component plane of this feature (name after preprocessing)")
	)
	timeout := cliutil.RegisterTimeout(fs)
	obsFlags := obs.RegisterFlags(fs)
	if err := cliutil.Parse(fs, args); err != nil {
		return err
	}
	if obsFlags.PrintVersion(stdout, "somviz") {
		return nil
	}
	sess, err := obsFlags.Start()
	if err != nil {
		return err
	}
	ctx, cancel := cliutil.WithTimeout(*timeout)
	defer cancel()
	// The body runs inside the observability session so the pipeline
	// reports into it via the process-default observer.
	err = func() error {
		in := stdin
		if *inPath != "" {
			f, err := os.Open(*inPath)
			if err != nil {
				return err
			}
			defer f.Close()
			in = f
		}
		m, err := dataio.ReadMatrix(in)
		if err != nil {
			return err
		}
		table, err := hmeans.NewTable(m.Workloads, m.Features, m.Rows)
		if err != nil {
			return err
		}
		var kindVal hmeans.CharKind
		switch *kind {
		case "counters":
			kindVal = hmeans.Counters
		case "bits":
			kindVal = hmeans.Bits
		default:
			return fmt.Errorf("unknown kind %q", *kind)
		}
		p, err := hmeans.DetectClustersCtx(ctx, table, hmeans.PipelineConfig{
			Kind: kindVal,
			SOM:  som.Config{Rows: *rows, Cols: *cols, Seed: *seed},
		})
		if err != nil {
			return err
		}

		fmt.Fprintf(stdout, "SOM %dx%d, %d features after preprocessing "+
			"(dropped: %d constant, %d single-user, %d universal)\n\n",
			p.Map.Rows(), p.Map.Cols(), len(p.Prepared.Features),
			len(p.Report.DroppedConstant), len(p.Report.DroppedSingleUser), len(p.Report.DroppedUniversal))

		vectors := p.Prepared.Vectors()
		if err := viz.SOMMap(stdout, p.Map, p.Workloads, vectors); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\nquantization error: %.4f   topographic error: %.4f\n",
			p.Map.QuantizationError(vectors), p.Map.TopographicError(vectors))

		if *plane != "" {
			idx := -1
			for j, f := range p.Prepared.Features {
				if f == *plane {
					idx = j
					break
				}
			}
			if idx < 0 {
				return fmt.Errorf("feature %q not present after preprocessing (have %d features)", *plane, len(p.Prepared.Features))
			}
			values, err := p.Map.ComponentPlane(idx)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "\nComponent plane of %s (where on the map this feature is high):\n", *plane)
			if err := viz.Heatmap(stdout, values); err != nil {
				return err
			}
		}

		fmt.Fprintln(stdout, "\nU-matrix (bright ridges separate clusters):")
		if err := viz.Heatmap(stdout, p.Map.UMatrix()); err != nil {
			return err
		}

		fmt.Fprintln(stdout, "\nDendrogram of SOM positions (complete linkage):")
		if err := viz.Dendrogram(stdout, p.Dendrogram, p.Workloads); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "\nCluster membership by cut:")
		return viz.CutTable(stdout, p.Dendrogram, p.Workloads, *kMin, *kMax)
	}()
	if cerr := sess.Close(); err == nil {
		err = cerr
	}
	return err
}
