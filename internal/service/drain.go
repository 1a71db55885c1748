package service

import (
	"errors"
	"fmt"
)

// ErrDraining reports that the server has begun draining for shutdown
// and refuses new scoring work. In-flight and already-queued requests
// keep running; only arrivals after BeginDrain see this error. Mapped
// to 503 with a Retry-After header, so a well-behaved client retries
// against the replacement process instead of failing the run.
var ErrDraining = errors.New("service: draining, not accepting new requests")

// BeginDrain flips the server into draining mode: /readyz starts
// answering 503 (so load balancers stop routing here) and new scoring
// requests are refused with ErrDraining, while everything already
// admitted runs to completion. Draining is one-way — a server never
// un-drains; it restarts.
func (s *Server) BeginDrain() {
	if s.draining.CompareAndSwap(false, true) {
		s.count("service.drain.begin")
	}
}

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// PanicError is a handler panic converted into an error: the request
// that tripped it gets a typed 500 (with its request ID already in the
// response headers) and the process keeps serving. Value is the
// recovered panic value; Stack the goroutine stack captured at the
// recovery point, for the access log and post-mortems.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("service: internal panic: %v", e.Value) }
