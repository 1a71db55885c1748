package obs

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
)

// Flags is the standard observability flag block shared by the cmd/
// binaries. Register it with RegisterFlags, then Start a Session
// after flag parsing.
type Flags struct {
	// HTTP is the -obs.http listen address for the live
	// introspection server (pprof, expvar, /metrics, /trace).
	HTTP string
	// Trace is the -obs.trace JSONL trace output path.
	Trace string
	// CPUProfile and MemProfile are pprof output paths.
	CPUProfile string
	MemProfile string
	// Detail turns on high-volume instrumentation (per-merge linkage
	// events); see Observer.SetDetail.
	Detail bool
	// Version is the -version flag: print build info and exit.
	Version bool
}

// RegisterFlags registers the -obs.* block and -version on fs.
func RegisterFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.HTTP, "obs.http", "", "serve live introspection (pprof, expvar, /metrics, /trace) on this address, e.g. :6060")
	fs.StringVar(&f.Trace, "obs.trace", "", "write a JSONL span/event trace to this file")
	fs.StringVar(&f.CPUProfile, "obs.cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&f.MemProfile, "obs.memprofile", "", "write a heap profile to this file on exit")
	fs.BoolVar(&f.Detail, "obs.detail", false, "record high-volume events too (per-merge linkage events)")
	fs.BoolVar(&f.Version, "version", false, "print version/build info and exit")
	return f
}

// PrintVersion handles the -version flag: when set it prints the
// build description and reports true (the caller should then return
// without running).
func (f *Flags) PrintVersion(w io.Writer, name string) bool {
	if !f.Version {
		return false
	}
	fmt.Fprintf(w, "%s %s\n", name, Version())
	return true
}

// Enabled reports whether any observability output was requested.
func (f *Flags) Enabled() bool {
	return f.HTTP != "" || f.Trace != "" || f.CPUProfile != "" || f.MemProfile != "" || f.Detail
}

// Session is a running observability configuration: the Observer to
// thread into pipeline configs, plus the file handles and server it
// owns. Always Close it (idempotent) — Close stops the CPU profile,
// writes the heap profile and flushes the trace.
type Session struct {
	// Obs is nil when no observability flag was set, so an untouched
	// command line keeps the zero-overhead path.
	Obs *Observer
	// HTTPAddr is the bound address of the introspection server,
	// empty when -obs.http was not set.
	HTTPAddr string

	trace       *JSONLSink
	traceFile   *os.File
	cpuFile     *os.File
	memPath     string
	httpClose   func() error
	prevDefault *Observer
	restoreDef  bool
	closed      bool
}

// Start builds the Session described by the flags: sinks, profiles
// and the HTTP server. It installs the observer as the process
// default (see SetDefault) so configuration-less call paths
// (internal/simbench) report into it too.
func (f *Flags) Start() (*Session, error) {
	s := &Session{}
	if !f.Enabled() {
		return s, nil
	}
	var sinks []Sink
	if f.Trace != "" {
		file, err := os.Create(f.Trace)
		if err != nil {
			return nil, fmt.Errorf("obs: trace: %w", err)
		}
		s.traceFile = file
		s.trace = NewJSONLSink(file)
		sinks = append(sinks, s.trace)
	}
	var live *LiveSink
	if f.HTTP != "" {
		live = NewLiveSink()
		sinks = append(sinks, live)
	}
	s.Obs = New(sinks...)
	s.Obs.SetDetail(f.Detail)
	s.Obs.Metrics().PublishExpvar("hmeans")
	if f.HTTP != "" {
		ln, closeFn, err := Serve(f.HTTP, s.Obs)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("obs: http: %w", err)
		}
		s.HTTPAddr = ln.Addr().String()
		s.httpClose = closeFn
	}
	if f.CPUProfile != "" {
		file, err := os.Create(f.CPUProfile)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("obs: cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(file); err != nil {
			file.Close()
			s.Close()
			return nil, fmt.Errorf("obs: cpuprofile: %w", err)
		}
		s.cpuFile = file
	}
	s.memPath = f.MemProfile
	s.prevDefault = SetDefault(s.Obs)
	s.restoreDef = true
	return s, nil
}

// Close tears the session down: stops the CPU profile, writes the
// heap profile, flushes and closes the trace, shuts the HTTP server
// down and restores the previous default observer. Safe to call on a
// disabled session and idempotent.
func (s *Session) Close() error {
	if s == nil || s.closed {
		return nil
	}
	s.closed = true
	var first error
	keep := func(err error) {
		if first == nil && err != nil {
			first = err
		}
	}
	if s.restoreDef {
		SetDefault(s.prevDefault)
	}
	if s.cpuFile != nil {
		pprof.StopCPUProfile()
		keep(s.cpuFile.Close())
	}
	if s.memPath != "" {
		file, err := os.Create(s.memPath)
		if err != nil {
			keep(err)
		} else {
			runtime.GC()
			keep(pprof.WriteHeapProfile(file))
			keep(file.Close())
		}
	}
	if s.trace != nil {
		keep(s.trace.Close())
		keep(s.traceFile.Close())
	}
	if s.httpClose != nil {
		keep(s.httpClose())
	}
	return first
}
