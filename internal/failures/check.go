package failures

import (
	"fmt"

	"cspsat/internal/trace"
)

// CheckResult is the verdict of a behavioural check over a computed model:
// deadlock freedom or a refusal assertion. It is the failures-model
// analogue of check.Result — a pass is exhaustive up to the model's depth,
// a failure carries the witnessing trace and stable acceptance.
type CheckResult struct {
	// OK is true when no stable state violates the property.
	OK bool
	// Trace is where the violation occurs, when OK is false.
	Trace trace.T
	// Acceptance is the violating stable acceptance: what the process
	// offers at the bad state. Empty means a deadlock — the state refuses
	// everything.
	Acceptance Acceptance
	// Depth is the visible-trace bound the check is exhaustive up to.
	Depth int
}

func (r CheckResult) String() string {
	if r.OK {
		return fmt.Sprintf("holds on all stable states up to depth %d", r.Depth)
	}
	if len(r.Acceptance) == 0 {
		return fmt.Sprintf("DEADLOCK after %s (empty acceptance, depth %d)", r.Trace, r.Depth)
	}
	return fmt.Sprintf("VIOLATED after %s: stable state offers only %s (depth %d)",
		r.Trace, r.Acceptance, r.Depth)
}

// CheckDeadlockFree reports whether any reachable stable state refuses
// everything — the property the paper's §4 admits the trace model cannot
// express (STOP satisfies every satisfiable assertion). The returned
// counterexample is the shortest-by-exploration trace to an empty
// acceptance.
func (m *Model) CheckDeadlockFree() CheckResult {
	res := CheckResult{OK: true, Depth: m.depth}
	if t, bad := m.CanDeadlock(); bad {
		res.OK = false
		res.Trace = t
		res.Acceptance = Acceptance{}
	}
	return res
}

// CheckOffers checks the refusal assertion "the process can never refuse
// all of the named channels": after every trace, every stable state must
// offer at least one event on some channel of chans. With no channels it
// degenerates to deadlock freedom (some event must always be on offer).
// The counterexample is a stable acceptance disjoint from the channels —
// a state where the environment, listening only on chans, is refused.
func (m *Model) CheckOffers(chans []trace.Chan) CheckResult {
	res := CheckResult{OK: true, Depth: m.depth}
	if len(chans) == 0 {
		return m.CheckDeadlockFree()
	}
	want := map[trace.Chan]bool{}
	for _, c := range chans {
		want[c] = true
	}
	for _, k := range m.order {
		e := m.traces[k]
		for _, acc := range e.accs {
			offered := false
			for _, ev := range acc {
				if want[ev.Chan] {
					offered = true
					break
				}
			}
			if !offered {
				cp := make(trace.T, len(e.trace))
				copy(cp, e.trace)
				return CheckResult{OK: false, Trace: cp, Acceptance: acc, Depth: m.depth}
			}
		}
	}
	return res
}
