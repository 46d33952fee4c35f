// Package progress defines the cross-engine progress callback: a single
// hook type every long-running engine (the operational explorer, the
// denotational fixpoint, the proof checker's batch mode, the assert
// sweep) reports through. The facade (pkg/csp) re-exports the types; the
// engines only ever call Emit, so a nil callback costs one branch.
package progress

import (
	"sync"
	"time"
)

// Event is one progress report. Fields are cumulative for the stage named
// unless noted; engines fill only the counters that apply to them.
type Event struct {
	// Stage identifies the reporting engine phase: "explore" (operational
	// explorer), "fixpoint" (denotational approximation chain), "prove"
	// (proof batch), "check" (assert sweep).
	Stage string
	// StatesExpanded counts the distinct transition-system states the
	// explorer's state table holds (explore stage): the initial state and
	// every state an exploration followed a transition to. Targets of
	// transitions it did not follow, such as those past the depth bound,
	// are never built and not counted.
	StatesExpanded int
	// Frontier is always zero: no engine reports a frontier. It stays for
	// the wire form's "frontier" counter, which schema 1 keeps (DESIGN.md
	// §3.6).
	Frontier int
	// Depth is the trace-length bound the stage explored (explore stage;
	// fixpoint: unused).
	Depth int
	// ChainIterations counts approximation-chain passes (fixpoint stage).
	ChainIterations int
	// ObligationsDischarged counts pure side conditions the validity
	// oracle accepted (prove stage).
	ObligationsDischarged int
	// Items / Total report batch progress (prove and check stages):
	// Items of Total units finished.
	Items, Total int
	// Elapsed is the wall time since the stage started.
	Elapsed time.Duration
	// Done marks the final event of the stage.
	Done bool
}

// Func observes progress events. Callbacks must be cheap and
// goroutine-safe: parallel engines invoke them from worker barriers, and
// a slow callback stalls the pipeline it is watching.
type Func func(Event)

// Emit invokes f if non-nil.
func (f Func) Emit(e Event) {
	if f != nil {
		f(e)
	}
}

// Tracker accumulates the latest Event per stage, so a host can attach
// one callback to a run and read back a consistent snapshot afterwards —
// cspserved surfaces these per-request snapshots in its JSON responses.
// The zero value is ready to use; all methods are goroutine-safe.
type Tracker struct {
	mu     sync.Mutex
	order  []string
	latest map[string]Event
}

// Func returns the callback to hand to an engine. The callback only takes
// the Tracker's lock and copies one Event, so it is cheap enough for
// worker barriers.
func (t *Tracker) Func() Func {
	return func(e Event) {
		t.mu.Lock()
		defer t.mu.Unlock()
		if t.latest == nil {
			t.latest = map[string]Event{}
		}
		if _, seen := t.latest[e.Stage]; !seen {
			t.order = append(t.order, e.Stage)
		}
		t.latest[e.Stage] = e
	}
}

// Snapshot returns the most recent event of every stage that reported, in
// first-report order. The slice is a copy; mutating it does not affect the
// Tracker.
func (t *Tracker) Snapshot() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, len(t.order))
	for _, stage := range t.order {
		out = append(out, t.latest[stage])
	}
	return out
}
