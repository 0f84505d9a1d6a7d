// Run-level failure types for the parallel engines: cooperative
// cancellation (ParOptions.Ctx / RevalidateOptions.Ctx) and worker panic
// isolation both surface here instead of as a crashed process. The
// cancellation protocol is cooperative — the context is checked at unit
// boundaries and every few hundred match-frame expansions — so a cancelled
// run returns promptly with the stats of the work it did finish, and the
// goroutine-leak tests pin that nothing it spawned outlives it.
package core

import (
	"context"
	"errors"
	"fmt"
)

// ErrCanceled is the sentinel a parallel run returns when its context was
// canceled before the run reached an answer. A run stopped by a deadline
// returns context.DeadlineExceeded instead, so callers can distinguish "the
// caller gave up" from "the time budget ran out".
var ErrCanceled = errors.New("core: run canceled")

// PanicError is a panic raised inside one parallel worker, recovered at the
// goroutine boundary and converted into a run-level failure: the run's
// siblings are canceled, the run returns this error, and the process stays
// alive. Stack is the panicking goroutine's stack at recovery time.
type PanicError struct {
	Worker int    // id of the worker the panic was recovered on
	Value  any    // the value passed to panic
	Stack  []byte // runtime/debug.Stack() of the panicking goroutine
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("core: worker %d panicked: %v\n%s", e.Worker, e.Value, e.Stack)
}

// canceledErr maps a non-nil context error onto the package's sentinel:
// plain cancellation becomes ErrCanceled, a deadline (or any custom cause)
// passes through unchanged.
func canceledErr(err error) error {
	if errors.Is(err, context.Canceled) {
		return ErrCanceled
	}
	return err
}
