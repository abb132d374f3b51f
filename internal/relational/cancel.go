// Cancellation and panic-isolation plumbing for the operator tree.
//
// Operator constructors are context-free; the query's context reaches the
// tree in its Env, handed to Open. The operators that can run long between
// output batches — the pipeline breakers (join build, aggregates, sort,
// materialize) and the Exchange — poll env.Ctx once per drained input
// batch (pull; the Exchange once per morsel), which bounds the reaction
// time to one batch or morsel of work. The hot tuple-at-a-time operators
// (Filter, Project) only forward the Env: they emit one output batch per
// input batch, so the drain loop's own per-batch check already covers
// them, and their gated allocs/op benchmarks stay untouched.

package relational

import (
	"context"
	"fmt"
	"runtime"
)

// canceled returns ctx.Err() if ctx is done, else nil. A nil context (a
// zero Env) and context.Background() are both free:
// Done() returns nil and the select is skipped.
func canceled(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	done := ctx.Done()
	if done == nil {
		return nil
	}
	select {
	case <-done:
		return ctx.Err()
	default:
		return nil
	}
}

// PanicError is a panic converted into a per-query error by RecoverPanic.
// It marks the failure as an internal fault (front ends map it to 500, not
// 4xx) and carries the stack captured at the recovery site.
type PanicError struct {
	// Origin names the boundary that recovered the panic (e.g. "exchange
	// morsel", "query execution").
	Origin string
	// Value is the value passed to panic.
	Value any
	// Stack is the panicking goroutine's stack at recovery time.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("relational: panic during %s: %v", e.Origin, e.Value)
}

// RecoverPanic converts an in-flight panic into a *PanicError stored in
// *errp, preserving any earlier error (the panic usually is the root
// cause's symptom, not the cause). Use as
//
//	defer RecoverPanic("exchange morsel", &err)
//
// at every boundary where a panic must poison one query, not the process.
func RecoverPanic(origin string, errp *error) {
	r := recover()
	if r == nil {
		return
	}
	if *errp == nil {
		buf := make([]byte, 16<<10)
		buf = buf[:runtime.Stack(buf, false)]
		*errp = &PanicError{Origin: origin, Value: r, Stack: buf}
	}
}

// SetContext is a no-op kept for callers written against the former
// post-lowering stamping walk: the context now reaches every operator
// through the Env passed to Open (engine.ExecuteContext builds it).
func SetContext(context.Context, Operator) {}
