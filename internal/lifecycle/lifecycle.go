// Package lifecycle is the query-lifecycle robustness layer shared by every
// long-running loop in the engine: a cheap atomic cancellation token derived
// from a context.Context, and a typed panic error that converts a crash in a
// model forward pass or worker goroutine into an ordinary query error
// carrying the offending stack.
//
// The token exists because the hot loops — block multiplies, heap scans,
// PREDICT batch pulls — cannot afford a mutex-guarded ctx.Err() per
// tuple. Watch spawns one watcher goroutine per query that flips an atomic
// flag when the context fires; every loop then pays a single atomic load per
// check. A nil *Token is valid everywhere and means "never cancelled", so
// pre-existing entry points thread nil without branching.
package lifecycle

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Token is the cancellation flag threaded from DB.QueryContext through the
// executor's loops. All methods are safe on a nil receiver (never
// cancelled) and for concurrent use.
type Token struct {
	ctx  context.Context
	flag atomic.Bool
}

// Watch derives a token from ctx. The returned stop function must be called
// when the query finishes (successfully or not) to release the watcher
// goroutine; it is idempotent. A context that can never be cancelled costs
// no goroutine at all.
func Watch(ctx context.Context) (*Token, func()) {
	t := &Token{ctx: ctx}
	done := ctx.Done()
	if done == nil {
		return t, func() {}
	}
	if ctx.Err() != nil {
		t.flag.Store(true)
		return t, func() {}
	}
	stop := make(chan struct{})
	go func() {
		select {
		case <-done:
			t.flag.Store(true)
		case <-stop:
		}
	}()
	var once sync.Once
	return t, func() { once.Do(func() { close(stop) }) }
}

// Canceled reports whether the context has fired. One atomic load; the
// intended per-tuple / per-block check.
func (t *Token) Canceled() bool {
	return t != nil && t.flag.Load()
}

// Err returns nil while the query is live, and the context's error
// (context.Canceled or context.DeadlineExceeded) once it has been
// cancelled. Loops use `if err := tok.Err(); err != nil { return err }`.
func (t *Token) Err() error {
	if t == nil || !t.flag.Load() {
		return nil
	}
	return t.ctx.Err()
}

// Done returns the underlying context's done channel for select-based
// waits (single-flight, channel handoffs). Nil receiver (or a context that
// cannot be cancelled) returns nil, which blocks forever in a select — the
// correct behaviour for "never cancelled".
func (t *Token) Done() <-chan struct{} {
	if t == nil || t.ctx == nil {
		return nil
	}
	return t.ctx.Done()
}

// Cause returns the underlying context error regardless of whether the
// watcher has flipped the atomic flag yet. Call it after Done() fires,
// where the context guarantees a non-nil error.
func (t *Token) Cause() error {
	if t == nil || t.ctx == nil {
		return nil
	}
	return t.ctx.Err()
}

// PanicError is a recovered panic converted into a query error: the
// panicking value plus the goroutine stack at the recovery point. It is
// what a bad model, malformed tensor block, or buggy UDF produces instead
// of killing the database process.
type PanicError struct {
	Value any
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("panic: %v\n%s", e.Value, e.Stack)
}

// recovered counts panics converted to errors process-wide, surfaced by
// engine.Stats so operators can see shared-fate hazards that were contained.
var recovered atomic.Int64

// Recovered reports how many panics have been converted to errors since the
// process started.
func Recovered() int64 { return recovered.Load() }

// AsError converts a recover() value into a *PanicError, capturing the
// current stack and bumping the process-wide counter. It returns nil for a
// nil value so callers can write `if err := lifecycle.AsError(recover());
// err != nil { ... }` unconditionally in a deferred function.
func AsError(v any) error {
	if v == nil {
		return nil
	}
	recovered.Add(1)
	return &PanicError{Value: v, Stack: debug.Stack()}
}
