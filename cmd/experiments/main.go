// Command experiments regenerates the paper's tables and figures from
// the simulated substrate.
//
//	experiments                  # everything, in paper order
//	experiments -run tableIV     # one artifact
//	experiments -list            # available artifact IDs
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"hmeans/internal/cliutil"
	"hmeans/internal/experiments"
	"hmeans/internal/obs"
)

func main() {
	os.Exit(cliutil.Run("experiments", os.Stderr, func() error {
		return run(os.Args[1:], os.Stdout)
	}))
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		runID   = fs.String("run", "", "experiment ID to run (empty = all)")
		list    = fs.Bool("list", false, "list experiment IDs and exit")
		runs    = fs.Int("runs", 10, "executions averaged per measurement")
		somSeed = fs.Uint64("somseed", 2007, "SOM training seed")
	)
	timeout := cliutil.RegisterTimeout(fs)
	obsFlags := obs.RegisterFlags(fs)
	if err := cliutil.Parse(fs, args); err != nil {
		return err
	}
	if obsFlags.PrintVersion(stdout, "experiments") {
		return nil
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Fprintf(stdout, "%-12s %s\n", e.ID, e.Title)
		}
		return nil
	}

	sess, err := obsFlags.Start()
	if err != nil {
		return err
	}
	ctx, cancel := cliutil.WithTimeout(*timeout)
	defer cancel()
	err = runExperiments(ctx, *runID, *runs, *somSeed, stdout)
	if cerr := sess.Close(); err == nil {
		err = cerr
	}
	return err
}

func runExperiments(ctx context.Context, runID string, runs int, somSeed uint64, stdout io.Writer) error {
	suite, err := experiments.NewSuite(experiments.Config{Runs: runs, SOMSeed: somSeed})
	if err != nil {
		return err
	}
	if runID == "" {
		return experiments.RunAllCtx(ctx, suite, stdout)
	}
	e, ok := experiments.ByID(runID)
	if !ok {
		return fmt.Errorf("unknown experiment %q (available: %s)", runID,
			strings.Join(experiments.IDs(), ", "))
	}
	fmt.Fprintf(stdout, "=== %s — %s ===\n", e.ID, e.Title)
	return e.Run(suite, stdout)
}
