package failures_test

// Runaway guards. A process that chatters on a hidden channel without ever
// repeating a state has an infinite τ-closure. Every analysis read off the
// explorer's walk must stop at its τ-closure cap with an error wrapping
// csperr.ErrDepthExceeded, and must give up promptly once its context is
// done. Each call runs under a timer guard, so a regression fails the test
// instead of hanging the suite while the heap grows.

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"cspsat/internal/csperr"
	"cspsat/internal/failures"
	"cspsat/internal/op"
	"cspsat/internal/parser"
	"cspsat/internal/sem"
	"cspsat/internal/syntax"
)

// hiddenCounter hides a counter's output: after out.0, sys can only count
// on c, and every count is a new state.
const hiddenCounter = `
cnt[n:NAT] = c!n -> cnt[n+1]
sys = chan c; out!0 -> cnt[0]
`

// runawayLimit bounds each guarded call; the capped walk needs about a
// second under the race detector.
const runawayLimit = 10 * time.Second

// guarded runs f and returns its error. If f has not returned within
// runawayLimit a timer panics, ending the test binary: failing just this
// test would leave the runaway allocating for the rest of the suite.
func guarded(t *testing.T, f func() error) error {
	name := t.Name()
	guard := time.AfterFunc(runawayLimit, func() { panic(fmt.Sprintf("%s: no answer within %v", name, runawayLimit)) })
	defer guard.Stop()
	return f()
}

// walkAnalyses are the analyses built on the explorer's walk, each run to
// depth 3 from sys.
var walkAnalyses = []struct {
	name string
	run  func(ctx context.Context, p syntax.Proc, env sem.Env) error
}{
	{"ComputeContext", func(ctx context.Context, p syntax.Proc, env sem.Env) error {
		_, err := failures.ComputeContext(ctx, p, env, 3)
		return err
	}},
	{"Diverges", func(ctx context.Context, p syntax.Proc, env sem.Env) error {
		_, _, err := failures.Diverges(ctx, p, env, 3)
		return err
	}},
	{"FindDeadlocks", func(ctx context.Context, p syntax.Proc, env sem.Env) error {
		_, err := op.FindDeadlocks(ctx, op.NewState(p, env), 3)
		return err
	}},
}

func hiddenCounterSys(t *testing.T) (syntax.Proc, sem.Env) {
	t.Helper()
	f, err := parser.Parse(hiddenCounter)
	if err != nil {
		t.Fatal(err)
	}
	return syntax.Ref{Name: "sys"}, sem.NewEnv(f.Module, 2)
}

func TestRunawayHitsTauClosureCap(t *testing.T) {
	p, env := hiddenCounterSys(t)
	for _, a := range walkAnalyses {
		t.Run(a.name, func(t *testing.T) {
			err := guarded(t, func() error { return a.run(context.Background(), p, env) })
			if !errors.Is(err, csperr.ErrDepthExceeded) {
				t.Fatalf("err = %v, want one wrapping ErrDepthExceeded", err)
			}
		})
	}
}

func TestRunawayCanceled(t *testing.T) {
	p, env := hiddenCounterSys(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, a := range walkAnalyses {
		t.Run(a.name, func(t *testing.T) {
			start := time.Now()
			err := guarded(t, func() error { return a.run(ctx, p, env) })
			if !errors.Is(err, csperr.ErrCanceled) {
				t.Fatalf("err = %v, want one wrapping ErrCanceled", err)
			}
			if d := time.Since(start); d > time.Second {
				t.Fatalf("cancelled walk took %v", d)
			}
		})
	}
}
