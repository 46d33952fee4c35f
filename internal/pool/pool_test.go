package pool

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"cspsat/internal/csperr"
)

// TestRunSemanticsProperty drives Run over randomized (workers, n)
// configurations and checks the contract both paths share: every item
// 0..n-1 executes exactly once, no item executes twice, and the inline
// and pooled schedules process the same item set.
func TestRunSemanticsProperty(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := r.Intn(100)
		workers := r.Intn(16) - 1 // includes WorkersAuto and 0
		counts := make([]atomic.Int32, n+1)
		err := Run(context.Background(), workers, n, func(i int) error {
			counts[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("trial %d (workers=%d n=%d): %v", trial, workers, n, err)
		}
		for i := 0; i < n; i++ {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("trial %d (workers=%d n=%d): item %d ran %d times", trial, workers, n, i, got)
			}
		}
	}
}

// TestRunWorkersExceedN pins the workers>n clamp: no goroutine should ever
// claim a nonexistent item, and every item still runs once.
func TestRunWorkersExceedN(t *testing.T) {
	for _, n := range []int{0, 1, 2, 5} {
		var ran atomic.Int32
		err := Run(context.Background(), 64, n, func(i int) error {
			if i < 0 || i >= n {
				t.Errorf("n=%d: claimed out-of-range item %d", n, i)
			}
			ran.Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if int(ran.Load()) != n {
			t.Fatalf("n=%d: ran %d items", n, ran.Load())
		}
	}
}

// TestRunZeroItems: n=0 must return nil without invoking f, under any
// worker count.
func TestRunZeroItems(t *testing.T) {
	for _, w := range []int{WorkersAuto, 0, 1, 8} {
		if err := Run(context.Background(), w, 0, func(int) error {
			t.Fatal("f invoked with n=0")
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
	}
}

// TestRunErrorShortCircuitSerial pins the inline path's ordering contract:
// the first failing index is returned and no later item runs.
func TestRunErrorShortCircuitSerial(t *testing.T) {
	boom := errors.New("boom")
	var last atomic.Int32
	last.Store(-1)
	err := Run(context.Background(), 1, 100, func(i int) error {
		last.Store(int32(i))
		if i == 7 {
			return fmt.Errorf("item %d: %w", i, boom)
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
	if last.Load() != 7 {
		t.Fatalf("serial path ran past the failing item: last=%d", last.Load())
	}
}

// TestRunErrorShortCircuitParallel checks the pooled path stops claiming
// promptly after an error: some items may run concurrently with the
// failure, but the count of items executed after the error is recorded
// must be bounded by the items in flight, not the whole range.
func TestRunErrorShortCircuitParallel(t *testing.T) {
	boom := errors.New("boom")
	const n = 10000
	var after atomic.Int32
	var failed atomic.Bool
	err := Run(context.Background(), 4, n, func(i int) error {
		if failed.Load() {
			after.Add(1)
		}
		if i == 10 {
			failed.Store(true)
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
	// Each worker claims one item at a time, so a few items are in flight
	// when the stop flag flips; anything near n means the flag was
	// ignored.
	if after.Load() > n/2 {
		t.Fatalf("%d items ran after the error — stop flag not honored", after.Load())
	}
}

// TestRunCancellationMidDrain cancels the context while items are
// draining and checks Run returns an ErrCanceled-wrapped error without
// running the full range.
func TestRunCancellationMidDrain(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int32
		err := Run(ctx, workers, 100000, func(i int) error {
			if ran.Add(1) == 50 {
				cancel()
			}
			time.Sleep(10 * time.Microsecond)
			return nil
		})
		cancel()
		if !errors.Is(err, csperr.ErrCanceled) {
			t.Fatalf("workers=%d: want ErrCanceled, got %v", workers, err)
		}
		if ran.Load() == 100000 {
			t.Fatalf("workers=%d: cancellation did not stop the drain", workers)
		}
	}
}

// TestRunPanicRecovery is the regression test for the wedged-pool bug: a
// panicking item must surface as an ErrPanic-wrapped error on both the
// inline and pooled paths, with every sibling worker unwound (Run
// returns) instead of leaking claim loops.
func TestRunPanicRecovery(t *testing.T) {
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			before := runtime.NumGoroutine()
			err := Run(context.Background(), workers, 1000, func(i int) error {
				if i == 13 {
					panic("engine stage exploded")
				}
				return nil
			})
			if !errors.Is(err, ErrPanic) {
				t.Fatalf("want ErrPanic, got %v", err)
			}
			// The pool must have fully drained: give the scheduler a
			// moment, then check no worker goroutines leaked.
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if g := runtime.NumGoroutine(); g > before {
				t.Fatalf("goroutines leaked after panic: %d > %d", g, before)
			}
		})
	}
}

// TestRunPanicValuePreserved: the panic value and a stack trace ride in
// the error text for diagnosis.
func TestRunPanicValuePreserved(t *testing.T) {
	err := Run(context.Background(), 2, 10, func(i int) error {
		panic(fmt.Sprintf("item-%d-panicked", i))
	})
	if err == nil || !errors.Is(err, ErrPanic) {
		t.Fatalf("want ErrPanic, got %v", err)
	}
	if msg := err.Error(); !containsAll(msg, "-panicked", "pool.") {
		t.Fatalf("panic value/stack missing from error: %q", msg)
	}
}

func containsAll(s string, subs ...string) bool {
	for _, sub := range subs {
		found := false
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// TestResolve pins the WorkersAuto mapping.
func TestResolve(t *testing.T) {
	if got := Resolve(WorkersAuto); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Resolve(WorkersAuto) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	for _, w := range []int{0, 1, 7} {
		if got := Resolve(w); got != w {
			t.Fatalf("Resolve(%d) = %d", w, got)
		}
	}
}
