package op

import (
	"context"

	"cspsat/internal/trace"
)

// Deadlock is a reachable stuck configuration: after Trace, the network can
// be in a state (State) from which no communication — visible or hidden —
// is possible. STOP-ing by design and deadlocking by accident look the
// same in the trace model (the paper's §4 limitation); this detector
// reports both, with the stuck residual term for diagnosis.
type Deadlock struct {
	Trace trace.T
	State State
}

// FindDeadlocks explores the transition system to the visible-depth bound
// and returns every minimal deadlock found: one entry per distinct stuck
// state, with a shortest trace reaching it. The search is a Walk, so it
// meets each τ-closed state list once, shares the explorer's τ-closure
// cap and ends with an error wrapping csperr.ErrCanceled once ctx is done.
func FindDeadlocks(ctx context.Context, s State, depth int) ([]Deadlock, error) {
	var out []Deadlock
	seenStuck := map[uint32]bool{}
	_, err := new(Explorer).Walk(ctx, s, depth, func(n *Node) error {
		for i, id := range n.IDs {
			ts, err := n.Step(i)
			if err != nil {
				return err
			}
			// A state is stuck when it enables nothing at all.
			if len(ts) == 0 && !seenStuck[id] {
				seenStuck[id] = true
				cp := make(trace.T, len(n.Trace))
				copy(cp, n.Trace)
				out = append(out, Deadlock{Trace: cp, State: n.States[i]})
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
