// Package pool is the shared worker-pool primitive of the parallel
// engines: run n independent work items over w goroutines, stop early on
// the first error or on context cancellation, and report cancellation as
// csperr.ErrCanceled. All parallel stages in sem, proof, and pkg/csp are
// built from Run so they share one cancellation and error discipline —
// and one cost model: the adaptive serial/parallel cutover (Adaptive)
// routes stages too small to amortise goroutine spawn through the inline
// path, so a large Workers setting never taxes a tiny workload.
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
// machine": Resolve maps it to runtime.GOMAXPROCS(0). Engines combine it
// with Adaptive, so auto parallelism on a tiny workload still runs inline.
// pkg/csp re-exports the same value for options structs and the CLI's
// -workers auto spelling.
const WorkersAuto = -1

// DefaultSerialCutover is the stage size below which Adaptive routes work
// through the inline path regardless of the requested worker count. The
// value is measured, not guessed: on the BENCH_2026-08-05 regression
// workloads the per-stage cost of spawning workers plus draining the
// barrier is ~15–60µs, which items cheaper than ~1µs each cannot repay
// until the stage holds a few dozen of them; see DESIGN.md §3.7 for the
// measurement matrix. Stages at or above the cutover keep the requested
// parallelism.
const DefaultSerialCutover = 24

// chunkTarget is the number of claim batches a stage is split into:
// claiming chunks of n/chunkTarget items off the atomic counter replaces
// per-item claims, cutting counter contention by the chunk size while
// leaving enough batches to balance uneven item costs across workers.
// The batch count is deliberately independent of the worker count (it
// only rises past chunkTarget when 2·workers exceeds it, to keep at
// least two batches per worker): if batches scaled with workers, every
// extra worker would add scheduler hand-offs to an otherwise unchanged
// stage, and on a machine with fewer cores than workers that churn is
// pure overhead — it was the residual Workers=8-vs-4 slope in the
// BENCH_2026-08-05 regression after the cutover landed.
const chunkTarget = 16

// Resolve maps a workers setting to a concrete pool size: WorkersAuto
// (any negative value) becomes runtime.GOMAXPROCS(0); everything else is
// returned unchanged. Engines call it once at entry so the rest of their
// scheduling logic sees only concrete counts.
func Resolve(workers int) int {
	if workers < 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// Adaptive is the serial/parallel cutover: it returns the worker count a
// stage of n items should actually use. Below the cutover it returns 1,
// selecting Run's inline path — exact serial semantics, zero goroutines —
// so an 8-worker engine costs the same as a 1-worker one on a small
// equation system or batch. At or above the cutover the requested
// count is kept (Run itself clamps to n).
//
// cutover ≤ 0 means DefaultSerialCutover; to force the parallel path for
// any n (differential tests pin serial/parallel equivalence this way),
// pass cutover 1. Negative workers resolve via Resolve first.
func Adaptive(workers, n, cutover int) int {
	workers = Resolve(workers)
	if cutover <= 0 {
		cutover = DefaultSerialCutover
	}
	if n < cutover {
		return 1
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
// Items are claimed from an atomic counter in chunks of roughly n/16
// (n/(2·workers) when that is smaller), so ordering across workers is
// arbitrary; callers that need deterministic output index into
// preallocated result slices by item index.
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
	batches := chunkTarget
	if 2*workers > batches {
		batches = 2 * workers
	}
	chunk := n / batches
	if chunk < 1 {
		chunk = 1
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
				end := int(next.Add(int64(chunk)))
				start := end - chunk
				if start >= n {
					return
				}
				if end > n {
					end = n
				}
				for i := start; i < end; i++ {
					if stop.Load() {
						return
					}
					if err := call(f, i); err != nil {
						record(err)
						return
					}
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
