package op_test

import (
	"context"
	"fmt"
	"testing"

	"cspsat/internal/failures"
	"cspsat/internal/op"
	"cspsat/internal/sem"
	"cspsat/pkg/csp"
)

// TestExplorationWorkBounds guards the explorer's state table and the
// walk's normal form by allocation count, which, unlike wall time,
// repeats exactly between runs. On the philosophers' deadlocking network
// at nat 2 and depth 6 each analysis steps the net's 37 distinct states
// once, and the walk meets its 1,093 traces as 12 distinct τ-closed state
// lists. An explorer that re-stepped a state on every visit allocates 6×
// (Traces) more, and a walk that visited every trace allocates 14× (the
// failures model) and 2× (deadlock search) more; both trip these bounds,
// which leave room for the race detector's extra allocations.
//
// Buffers' buf2 at nat 3 and depth 12 has 139,966 traces over 14 state
// lists, so its failures model must count them all and allocate about
// what it does at depth 6: a walk over every trace allocates 2.4 million
// times there, about 2,000 times the bound.
//
// The multiplier at nat 3 and depth 4 steps 248 states but has 1,030
// transitions whose targets an eager table builds and keys: rendering
// each successor as its key and building the ones no exploration follows
// allocated 30,361 times; a structural key and successors minted only
// when followed allocate about 11,600.
func TestExplorationWorkBounds(t *testing.T) {
	phil := load(t, "philosophers.csp", 2, "deadlocking")
	buf2 := load(t, "buffers.csp", 3, "buf2")
	mult := load(t, "multiplier.csp", 3, "multiplier")
	const depth = 6
	for _, c := range []struct {
		name  string
		bound float64
		run   func() error
	}{
		{"op.Traces", 20_000, func() error {
			_, err := op.Traces(phil.p, phil.env, depth)
			return err
		}},
		{"failures.Compute", 11_000, func() error {
			_, err := failures.Compute(phil.p, phil.env, depth)
			return err
		}},
		{"op.FindDeadlocks", 11_000, func() error {
			_, err := op.FindDeadlocks(context.Background(), op.NewState(phil.p, phil.env), depth)
			return err
		}},
		{"op.Traces/multiplier-nat-3-depth-4", 16_000, func() error {
			_, err := op.Traces(mult.p, mult.env, 4)
			return err
		}},
		{"failures.Compute/buf2-depth-12", 1_200, func() error {
			m, err := failures.Compute(buf2.p, buf2.env, 12)
			if err == nil && m.Size() != 139_966 {
				err = fmt.Errorf("model counts %d traces, want 139966", m.Size())
			}
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

// process is a spec process with the environment it runs in.
type process struct {
	p   csp.Proc
	env sem.Env
}

// load returns the named process of a spec at the given NAT width.
func load(t *testing.T, file string, nat int, name string) process {
	t.Helper()
	mod, err := csp.LoadFile(context.Background(), "../../specs/"+file, csp.Options{NatWidth: nat})
	if err != nil {
		t.Fatal(err)
	}
	p, err := mod.Proc(name)
	if err != nil {
		t.Fatal(err)
	}
	return process{p, mod.Env()}
}
