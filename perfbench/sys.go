package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// header returns the run header lines: what ran, on what.
func header() []string {
	return []string{
		"commit: " + commit(),
		"go: " + runtime.Version() + " " + runtime.GOOS + "/" + runtime.GOARCH,
		"GOMAXPROCS: " + strconv.Itoa(runtime.GOMAXPROCS(0)) + "  nproc: " + strconv.Itoa(runtime.NumCPU()),
		"cpu: " + cpuModel(),
		"servers: " + configLine(),
	}
}

// buildCommit is the commit the binary was built from; run.sh sets it
// with -ldflags when the source is a git checkout.
var buildCommit string

func commit() string {
	if buildCommit == "" {
		return "unknown (not built from a git checkout)"
	}
	return buildCommit
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB is the process's peak resident set size (VmHWM) in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// usage is a snapshot of the process counters the runtime metrics are
// deltas of.
type usage struct {
	cpu     time.Duration // user + system, all threads
	gcCPU   float64       // seconds of CPU the runtime attributes to GC
	allocs  uint64        // heap objects allocated
	alloced uint64        // heap bytes allocated
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(gc)
	return usage{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		gcCPU:   gc[0].Value.Float64(),
		allocs:  ms.Mallocs,
		alloced: ms.TotalAlloc,
	}
}
