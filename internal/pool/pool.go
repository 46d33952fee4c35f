// Package pool is the shared worker pool: run n independent work items
// over w goroutines, stop early on the first error or on context
// cancellation, and report cancellation as csperr.ErrCanceled. Its callers
// are CheckAll's assert sweep, proof.CheckBatch's obligations, /v1/batch's
// items, and the denoter's serial chain pass, which uses the inline path
// for its cancellation and panic handling.
package pool

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"cspsat/internal/csperr"
)

// WorkersAuto is the sentinel worker count meaning "size the pool to the
// machine": Resolve maps it to runtime.GOMAXPROCS(0). pkg/csp re-exports
// the same value for options structs and the CLI's -workers auto spelling.
const WorkersAuto = -1

// Resolve maps a workers setting to a concrete pool size: WorkersAuto
// (any negative value) becomes runtime.GOMAXPROCS(0); everything else is
// returned unchanged.
func Resolve(workers int) int {
	if workers < 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// ErrPanic marks a work item that panicked. Run recovers the panic on
// both the inline and the pooled path and returns it as an error wrapping
// this sentinel (with the panic value and stack in the message), so a
// panicking engine stage unwinds through the ordinary error path — the
// pool drains, sibling workers stop, and a resident host's request
// goroutine gets an error instead of a crashed process or a wedged claim
// loop.
var ErrPanic = errors.New("csp: worker panicked")

// call invokes f(i), converting a panic into an ErrPanic-wrapped error.
func call(f func(int) error, i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: item %d: %v\n%s", ErrPanic, i, r, debug.Stack())
		}
	}()
	return f(i)
}

// Run executes f(0..n-1) across up to workers goroutines and waits for
// completion. It returns the first error any item produced, or a
// csperr.ErrCanceled-wrapped error when ctx was canceled before all items
// finished. With workers ≤ 1 (or n ≤ 1) it runs inline on the calling
// goroutine, preserving serial behavior exactly; negative workers
// (WorkersAuto) size the pool to the machine. A panicking f is recovered
// and reported as an ErrPanic-wrapped error on either path.
//
// Workers claim one item at a time from an atomic counter, so ordering
// across workers is arbitrary; callers that need deterministic output
// index into preallocated result slices by item index.
func Run(ctx context.Context, workers, n int, f func(int) error) error {
	if n <= 0 {
		return nil
	}
	workers = Resolve(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := Canceled(ctx); err != nil {
				return err
			}
			if err := call(f, i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
		stop     atomic.Bool
	)
	record := func(err error) {
		errOnce.Do(func() { firstErr = err })
		stop.Store(true)
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if err := Canceled(ctx); err != nil {
					record(err)
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := call(f, i); err != nil {
					record(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// Canceled returns a csperr.ErrCanceled-wrapped error when ctx is done,
// nil otherwise. Engines call it at loop heads so serial paths honor
// deadlines too.
//
// When the context carries a cancellation cause (context.Cause) beyond the
// generic Canceled/DeadlineExceeded, the cause is wrapped too, so callers
// can distinguish a deadline expiry (csperr.ErrDeadline) from an external
// interrupt (csperr.ErrInterrupted) with errors.Is while still matching
// the coarse csperr.ErrCanceled.
func Canceled(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	err := ctx.Err()
	if err == nil {
		return nil
	}
	if cause := context.Cause(ctx); cause != nil && !errors.Is(err, cause) {
		return fmt.Errorf("%w: %w", csperr.ErrCanceled, cause)
	}
	return fmt.Errorf("%w: %v", csperr.ErrCanceled, err)
}
