package op

import (
	"context"
	"encoding/binary"

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
// shares the explorer's τ-closure cap and ends with an error wrapping
// csperr.ErrCanceled once ctx is done.
func FindDeadlocks(ctx context.Context, s State, depth int) ([]Deadlock, error) {
	var out []Deadlock
	seenStuck := map[uint32]bool{}
	// A state set already met at the same trace length has the same stuck
	// states and the same subtree, so it is skipped before it is stepped.
	// The set is keyed by its states' table ids.
	type setKey struct {
		length int
		states string
	}
	visited := map[setKey]bool{}
	err := new(Explorer).Walk(ctx, s, depth, func(n *Node) error {
		ids := make([]byte, 0, 4*len(n.ids))
		for _, id := range n.ids {
			ids = binary.LittleEndian.AppendUint32(ids, id)
		}
		k := setKey{len(n.Trace), string(ids)}
		if visited[k] {
			return SkipNode
		}
		visited[k] = true
		steps, err := n.Steps()
		if err != nil {
			return err
		}
		for i, ts := range steps {
			// A state is stuck when it enables nothing at all.
			if len(ts) == 0 && !seenStuck[n.ids[i]] {
				seenStuck[n.ids[i]] = true
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
