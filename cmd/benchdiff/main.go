// Command benchdiff turns `go test -bench` output into a comparable
// JSON record and gates benchmark regressions in CI.
//
// Parse mode — read raw bench output, keep the best sample per
// benchmark (min across -count repetitions, the standard way to
// reject scheduler noise), write JSON:
//
//	go test -bench '...' -benchmem -count 5 ./... | benchdiff -parse - -o BENCH_PR.json
//
// When the input was produced with -benchmem, each record also
// carries bytes_per_op and allocs_per_op.
//
// Compare mode — diff a current record against the committed
// baseline and fail (exit 1) when any shared benchmark regressed by
// more than -max-regress percent in ns/op, when allocs/op increased
// at all (alloc counts are deterministic, so the tolerance is zero),
// or when a baseline benchmark disappeared:
//
//	benchdiff -baseline BENCH_BASELINE.json -current BENCH_PR.json -max-regress 20
//
// To refresh the baseline after an intentional performance change,
// regenerate it with parse mode and commit the new file (see the
// README's "Benchmark regression gate" section).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"

	"hmeans/internal/cliutil"
	"hmeans/internal/viz"
)

// Record is the JSON schema benchdiff reads and writes.
type Record struct {
	// Schema names the format for forward compatibility.
	Schema string `json:"schema"`
	// Benchmarks is sorted by name; one entry per benchmark, the
	// minimum of each metric across samples.
	Benchmarks []Benchmark `json:"benchmarks"`
}

// Schema is the current record format identifier. hmeans-bench/2
// added bytes_per_op and allocs_per_op; version-1 records must be
// regenerated (make bench-baseline) rather than silently upgraded,
// because the alloc gate needs real measurements to compare against.
const Schema = "hmeans-bench/2"

// memUnset marks a benchmark whose input lacked -benchmem columns.
const memUnset = -1

// Benchmark is one benchmark's best observed figures.
type Benchmark struct {
	// Name is the benchmark name with the -GOMAXPROCS suffix
	// stripped, sub-benchmark path included.
	Name string `json:"name"`
	// NsPerOp is the minimum ns/op across samples.
	NsPerOp float64 `json:"ns_per_op"`
	// BytesPerOp is the minimum B/op across samples, or -1 when the
	// bench output carried no -benchmem columns.
	BytesPerOp int64 `json:"bytes_per_op"`
	// AllocsPerOp is the minimum allocs/op across samples, or -1 when
	// the bench output carried no -benchmem columns.
	AllocsPerOp int64 `json:"allocs_per_op"`
	// Samples counts how many result lines contributed.
	Samples int `json:"samples"`
}

func main() {
	os.Exit(cliutil.Run("benchdiff", os.Stderr, func() error {
		return run(os.Args[1:], os.Stdout)
	}))
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	var (
		parse      = fs.String("parse", "", "parse raw `go test -bench` output from this file (- for stdin) into a JSON record")
		out        = fs.String("o", "", "output path for -parse (default stdout)")
		baseline   = fs.String("baseline", "", "baseline JSON record to compare against")
		current    = fs.String("current", "", "current JSON record to compare")
		maxRegress = fs.Float64("max-regress", 20, "fail when ns/op regresses by more than this percentage (allocs/op always gates at zero tolerance)")
	)
	if err := cliutil.Parse(fs, args); err != nil {
		return err
	}
	switch {
	case *parse != "" && (*baseline != "" || *current != ""):
		return cliutil.Usagef("-parse and -baseline/-current are mutually exclusive")
	case *parse != "":
		return runParse(*parse, *out, stdout)
	case *baseline != "" && *current != "":
		if *maxRegress <= 0 {
			return cliutil.Usagef("-max-regress must be > 0, got %v", *maxRegress)
		}
		return runCompare(*baseline, *current, *maxRegress, stdout)
	default:
		return cliutil.Usagef("need either -parse FILE or both -baseline and -current")
	}
}

// benchLine matches one result line of `go test -bench` output, e.g.
//
//	BenchmarkHGM-8   	  854745	      1404 ns/op	     312 B/op	      15 allocs/op
//
// Capture 1 is the name without the trailing -GOMAXPROCS, capture 2
// the ns/op figure, captures 3 and 4 the optional -benchmem columns.
var benchLine = regexp.MustCompile(`^(Benchmark[^\s]*?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(?:\s+(\d+) B/op\s+(\d+) allocs/op)?`)

// ParseBench reads raw benchmark output and reduces it to a Record:
// the minimum of each metric per benchmark name across repeated
// samples, sorted by name so the encoding is deterministic.
func ParseBench(r io.Reader) (*Record, error) {
	best := make(map[string]*Benchmark)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, fmt.Errorf("bad ns/op %q for %s", m[2], m[1])
		}
		bytesOp, allocsOp := int64(memUnset), int64(memUnset)
		if m[3] != "" {
			if bytesOp, err = strconv.ParseInt(m[3], 10, 64); err != nil {
				return nil, fmt.Errorf("bad B/op %q for %s", m[3], m[1])
			}
			if allocsOp, err = strconv.ParseInt(m[4], 10, 64); err != nil {
				return nil, fmt.Errorf("bad allocs/op %q for %s", m[4], m[1])
			}
		}
		b, ok := best[m[1]]
		if !ok {
			best[m[1]] = &Benchmark{Name: m[1], NsPerOp: ns, BytesPerOp: bytesOp, AllocsPerOp: allocsOp, Samples: 1}
			continue
		}
		b.Samples++
		if ns < b.NsPerOp {
			b.NsPerOp = ns
		}
		b.BytesPerOp = minMem(b.BytesPerOp, bytesOp)
		b.AllocsPerOp = minMem(b.AllocsPerOp, allocsOp)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(best) == 0 {
		return nil, fmt.Errorf("no benchmark result lines found")
	}
	rec := &Record{Schema: Schema}
	for _, b := range best {
		rec.Benchmarks = append(rec.Benchmarks, *b)
	}
	sort.Slice(rec.Benchmarks, func(i, j int) bool { return rec.Benchmarks[i].Name < rec.Benchmarks[j].Name })
	return rec, nil
}

// minMem folds one -benchmem sample into the running minimum, where
// memUnset means "not reported" rather than a measured zero.
func minMem(a, b int64) int64 {
	switch {
	case a == memUnset:
		return b
	case b == memUnset:
		return a
	case b < a:
		return b
	default:
		return a
	}
}

func runParse(in, out string, stdout io.Writer) error {
	var r io.Reader = os.Stdin
	if in != "-" {
		f, err := os.Open(in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	rec, err := ParseBench(r)
	if err != nil {
		return err
	}
	w := stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rec); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "parsed %d benchmarks\n", len(rec.Benchmarks))
	return nil
}

func loadRecord(path string) (*Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rec Record
	if err := json.NewDecoder(f).Decode(&rec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rec.Schema != Schema {
		return nil, fmt.Errorf("%s: schema %q, want %q (regenerate with `make bench-baseline`)", path, rec.Schema, Schema)
	}
	return &rec, nil
}

// Compare diffs current against baseline. It returns the rendered
// rows plus the names of regressed, missing and unknown benchmarks.
// The ns/op gate allows maxRegress percent of noise; the allocs/op
// gate is exact — allocation counts are deterministic, so any
// increase over the baseline is a real regression. A current
// benchmark absent from the baseline (unknown) also fails: a new
// benchmark only starts gating once the baseline records it, so
// landing one without refreshing BENCH_BASELINE.json would silently
// exempt it from the gate.
func Compare(baseline, current *Record, maxRegress float64) (rows [][4]string, regressed, allocRegressed, missing, unknown []string) {
	seen := make(map[string]bool, len(baseline.Benchmarks))
	for _, b := range baseline.Benchmarks {
		seen[b.Name] = true
	}
	for _, c := range current.Benchmarks {
		if !seen[c.Name] {
			unknown = append(unknown, c.Name)
		}
	}
	cur := make(map[string]Benchmark, len(current.Benchmarks))
	for _, b := range current.Benchmarks {
		cur[b.Name] = b
	}
	for _, base := range baseline.Benchmarks {
		c, ok := cur[base.Name]
		if !ok {
			missing = append(missing, base.Name)
			continue
		}
		deltaPct := (c.NsPerOp/base.NsPerOp - 1) * 100
		allocs := "n/a"
		if base.AllocsPerOp != memUnset && c.AllocsPerOp != memUnset {
			allocs = fmt.Sprintf("%d → %d", base.AllocsPerOp, c.AllocsPerOp)
			if c.AllocsPerOp > base.AllocsPerOp {
				allocRegressed = append(allocRegressed, base.Name)
			}
		}
		rows = append(rows, [4]string{base.Name,
			fmt.Sprintf("%.0f → %.0f ns/op", base.NsPerOp, c.NsPerOp),
			fmt.Sprintf("%+.1f%%", deltaPct),
			allocs})
		if deltaPct > maxRegress {
			regressed = append(regressed, base.Name)
		}
	}
	return rows, regressed, allocRegressed, missing, unknown
}

func runCompare(basePath, curPath string, maxRegress float64, stdout io.Writer) error {
	base, err := loadRecord(basePath)
	if err != nil {
		return err
	}
	cur, err := loadRecord(curPath)
	if err != nil {
		return err
	}
	rows, regressed, allocRegressed, missing, unknown := Compare(base, cur, maxRegress)
	t := viz.NewTable("benchmark", "ns/op", "delta", "allocs/op")
	for _, r := range rows {
		t.AddRow(r[0], r[1], r[2], r[3])
	}
	if err := t.Render(stdout); err != nil {
		return err
	}
	if len(missing) > 0 {
		return fmt.Errorf("%d baseline benchmark(s) missing from the current run (%v) — refresh BENCH_BASELINE.json if they were intentionally removed",
			len(missing), missing)
	}
	if len(unknown) > 0 {
		return fmt.Errorf("%d current benchmark(s) have no baseline entry (%v) — refresh BENCH_BASELINE.json so new benchmarks gate from day one",
			len(unknown), unknown)
	}
	if len(allocRegressed) > 0 {
		return fmt.Errorf("%d benchmark(s) increased allocs/op over the baseline (any increase fails — alloc counts are deterministic): %v",
			len(allocRegressed), allocRegressed)
	}
	if len(regressed) > 0 {
		return fmt.Errorf("%d benchmark(s) regressed more than %.0f%% in ns/op: %v",
			len(regressed), maxRegress, regressed)
	}
	fmt.Fprintf(stdout, "ok: %d benchmarks within %.0f%% of baseline, no allocs/op increases\n", len(rows), maxRegress)
	return nil
}
