package op_test

import (
	"context"
	"testing"

	"cspsat/internal/failures"
	"cspsat/internal/op"
	"cspsat/pkg/csp"
)

// TestExplorationWorkBounds guards the explorer's state table by
// allocation count, which, unlike wall time, repeats exactly between
// runs. On the philosophers' deadlocking network at nat 2 and depth 6
// each analysis steps the net's 37 distinct states once, though the walk
// meets them in 1,093 nodes; an explorer that re-stepped a state on
// every visit allocates 6× (Traces) to 40× (the failures model) more and
// trips these bounds, which leave room for the race detector's extra
// allocations.
func TestExplorationWorkBounds(t *testing.T) {
	mod, err := csp.LoadFile(context.Background(), "../../specs/philosophers.csp", csp.Options{NatWidth: 2})
	if err != nil {
		t.Fatal(err)
	}
	p, err := mod.Proc("deadlocking")
	if err != nil {
		t.Fatal(err)
	}
	env := mod.Env()
	const depth = 6
	for _, c := range []struct {
		name  string
		bound float64
		run   func() error
	}{
		{"op.Traces", 20_000, func() error {
			_, err := op.Traces(p, env, depth)
			return err
		}},
		{"failures.Compute", 400_000, func() error {
			_, err := failures.Compute(p, env, depth)
			return err
		}},
		{"op.FindDeadlocks", 60_000, func() error {
			_, err := op.FindDeadlocks(context.Background(), op.NewState(p, env), depth)
			return err
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var err error
			allocs := testing.AllocsPerRun(2, func() {
				if e := c.run(); e != nil {
					err = e
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if allocs > c.bound {
				t.Errorf("%.0f allocations per call, bound %.0f", allocs, c.bound)
			}
			t.Logf("%.0f allocations per call (bound %.0f)", allocs, c.bound)
		})
	}
}
