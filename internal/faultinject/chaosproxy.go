package faultinject

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"hmeans/internal/rng"
)

// FaultKind names one network-level fault the chaos proxy can inflict
// on a proxied connection.
type FaultKind string

// The connection fault kinds.
const (
	// FaultNone relays the connection untouched.
	FaultNone FaultKind = "none"
	// FaultDrop closes the client connection without ever dialing the
	// upstream — a reset before any byte of the answer.
	FaultDrop FaultKind = "drop"
	// FaultSlow relays the request, then stalls SlowDelay before
	// relaying the response — a straggler that trips client
	// timeouts.
	FaultSlow FaultKind = "slow"
	// FaultTruncate relays the request, buffers the full response, and
	// forwards only the first half before closing — a torn answer.
	FaultTruncate FaultKind = "truncate"
	// FaultCorrupt relays the request, buffers the full response, and
	// flips the response's last byte — same length, wrong bytes, so
	// only an integrity check can catch it.
	FaultCorrupt FaultKind = "corrupt"
)

// ChaosPlan sets the per-connection fault mix in percent; whatever the
// four percentages leave of 100 is relayed untouched.
type ChaosPlan struct {
	DropPct, SlowPct, TruncatePct, CorruptPct int
	// SlowDelay is the stall a FaultSlow connection suffers before its
	// response is relayed.
	SlowDelay time.Duration
}

func (p ChaosPlan) total() int { return p.DropPct + p.SlowPct + p.TruncatePct + p.CorruptPct }

// ConnFault records the fault one proxied connection was dealt, in
// accept order. The slice of them is the run's fault schedule: a pure
// function of the proxy seed and the connection sequence, exportable
// as JSON so a failing chaos run names exactly what it injected.
type ConnFault struct {
	Conn int       `json:"conn"`
	Kind FaultKind `json:"kind"`
}

// ChaosProxy is a seeded TCP proxy in front of one upstream address.
// Each accepted connection draws a fault from the proxy's rng stream
// (in accept order) and suffers it; everything else is a transparent
// byte relay. Tests put it between an HTTP client and a live hmeansd
// to prove network-level faults surface as typed client errors.
//
// FaultTruncate and FaultCorrupt buffer the whole upstream response
// before mangling it, which requires the upstream to close the
// connection after answering — point clients at the proxy with
// keep-alives disabled so every request carries Connection: close.
type ChaosProxy struct {
	upstream string
	plan     ChaosPlan
	lis      net.Listener

	mu    sync.Mutex
	r     *rng.Source
	sched []ConnFault

	wg sync.WaitGroup
}

// NewChaosProxy starts a chaos proxy on an ephemeral loopback port in
// front of upstream (a host:port). Close releases it.
func NewChaosProxy(upstream string, seed uint64, plan ChaosPlan) (*ChaosProxy, error) {
	if t := plan.total(); t < 0 || t > 100 {
		return nil, fmt.Errorf("faultinject: fault percentages sum to %d, want 0..100", t)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("faultinject: chaos proxy: %w", err)
	}
	p := &ChaosProxy{upstream: upstream, plan: plan, lis: lis, r: rng.New(seed)}
	p.wg.Add(1)
	go p.accept()
	return p, nil
}

// Addr returns the proxy's listen address (host:port).
func (p *ChaosProxy) Addr() string { return p.lis.Addr().String() }

// URL returns the proxy's address as an http base URL.
func (p *ChaosProxy) URL() string { return "http://" + p.Addr() }

// Close stops accepting and waits for in-flight connection handlers.
func (p *ChaosProxy) Close() error {
	err := p.lis.Close()
	p.wg.Wait()
	return err
}

// Schedule returns a copy of the faults dealt so far, in accept order.
func (p *ChaosProxy) Schedule() []ConnFault {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]ConnFault(nil), p.sched...)
}

// WriteSchedule writes the fault schedule as indented JSON — the
// artifact CI attaches when a chaos run fails, so the exact injected
// fault sequence travels with the failure.
func (p *ChaosProxy) WriteSchedule(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p.Schedule())
}

// accept deals each connection its fault (rng draws happen here, under
// the lock, so the schedule is deterministic in accept order) and
// hands it to a handler goroutine.
func (p *ChaosProxy) accept() {
	defer p.wg.Done()
	for {
		c, err := p.lis.Accept()
		if err != nil {
			return // listener closed
		}
		p.mu.Lock()
		f := ConnFault{Conn: len(p.sched), Kind: p.draw()}
		p.sched = append(p.sched, f)
		p.mu.Unlock()
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.handle(c, f.Kind)
		}()
	}
}

// draw picks a fault kind from the seeded stream (mu held).
func (p *ChaosProxy) draw() FaultKind {
	n := p.r.Intn(100)
	for _, b := range []struct {
		pct  int
		kind FaultKind
	}{
		{p.plan.DropPct, FaultDrop},
		{p.plan.SlowPct, FaultSlow},
		{p.plan.TruncatePct, FaultTruncate},
		{p.plan.CorruptPct, FaultCorrupt},
	} {
		if n < b.pct {
			return b.kind
		}
		n -= b.pct
	}
	return FaultNone
}

// handle relays one client connection through its fault.
func (p *ChaosProxy) handle(client net.Conn, kind FaultKind) {
	defer client.Close()
	if kind == FaultDrop {
		return // never dialed: the client sees EOF/reset immediately
	}
	up, err := net.Dial("tcp", p.upstream)
	if err != nil {
		return
	}
	defer up.Close()

	// Request path: client → upstream, in the background. The deferred
	// closes unblock it whatever the response path does.
	go func() {
		_, _ = io.Copy(up, client)
		if tc, ok := up.(*net.TCPConn); ok {
			_ = tc.CloseWrite()
		}
	}()

	switch kind {
	case FaultSlow:
		time.Sleep(p.plan.SlowDelay)
		_, _ = io.Copy(client, up)
	case FaultTruncate, FaultCorrupt:
		// Buffer the whole response (the upstream closes after one
		// answer — see the type comment), then mangle it.
		raw, err := io.ReadAll(up)
		if err != nil || len(raw) == 0 {
			return
		}
		if kind == FaultTruncate {
			raw = raw[:len(raw)/2]
		} else {
			raw[len(raw)-1] ^= 0x01 // last byte is response body
		}
		_, _ = client.Write(raw)
	default: // FaultNone
		_, _ = io.Copy(client, up)
	}
}
