// Stable JSON encodings of the facade's result types. The internal result
// structs are free to grow and reorder fields; these wire types are the
// compatibility surface cspserved serves and scripts parse, so fields are
// explicitly tagged, enums are strings, and traces are arrays of "c.m"
// event strings rather than opaque renderings.
package csp

import (
	"cspsat/internal/closure"
	"cspsat/internal/failures"
	"cspsat/internal/progress"
	"cspsat/internal/trace"
)

// WireSchema is the version stamped as "schema" into every /v1/* JSON
// response body. The compatibility rule (DESIGN.md §3.6): within one
// schema version fields are only ever added, never renamed, retyped, or
// repurposed, so clients may ignore unknown fields and must tolerate new
// ones; any breaking change bumps this number.
const WireSchema = 1

// TraceJSON is one visible trace as a sequence of "chan.msg" events.
type TraceJSON []string

// EncodeTrace renders a trace for the wire; nil traces encode as an empty
// (non-null) sequence.
func EncodeTrace(t Trace) TraceJSON {
	out := make(TraceJSON, 0, len(t))
	for _, e := range t {
		out = append(out, e.String())
	}
	return out
}

// TraceSetJSON is the wire form of a TraceResult.
type TraceSetJSON struct {
	// Engine names the engine that produced the set: "op", "denote",
	// "runtime".
	Engine string `json:"engine"`
	// Traces lists the requested traces (all, or only the maximal ones),
	// up to the encoder's limit.
	Traces []TraceJSON `json:"traces"`
	// Truncated reports that the set held more traces than the limit and
	// Traces lists only a subset. Count still reports the full set.
	Truncated bool `json:"truncated,omitempty"`
	// Count is the total number of traces in the set, prefixes included,
	// independent of how many Traces lists. Deep tries can hold more than
	// MaxInt traces; Count saturates there.
	Count int `json:"count"`
	// MaxLen is the length of the longest trace in the set.
	MaxLen int `json:"max_len"`
	// Iterations is the approximation-chain pass count (denote only).
	Iterations int `json:"iterations,omitempty"`
	// Events is the total communication count of the walk (runtime only).
	Events int `json:"events,omitempty"`
}

// EncodeTraceSet renders a TraceResult. With maxOnly, only maximal traces
// are listed (Count still reports the full set). limit bounds how many
// traces the listing holds (<= 0: unlimited), and a truncated listing
// holds the limit least traces in canonical order; hash-consed sets can
// hold astronomically more members than any response could carry, so
// servers must pass a limit.
func EncodeTraceSet(r *TraceResult, maxOnly bool, limit int) TraceSetJSON {
	// View, not Set: a store-backed result encodes straight off the frozen
	// arena — the response is byte-identical either way (the View contract),
	// and serving never forces a rebuild.
	v := r.View()
	out := TraceSetJSON{
		Engine:     r.Engine.String(),
		Count:      v.Size(),
		MaxLen:     v.MaxLen(),
		Iterations: r.Iterations,
		Events:     r.Events,
	}
	l := traceSetListing{Picker: closure.NewPicker(v, limit, maxOnly), out: out}
	l.out.Traces = make([]TraceJSON, 0, l.Capacity())
	v.WalkSorted(l.visit)
	l.out.Truncated = l.Truncated
	return l.out
}

// traceSetListing renders the members a Picker picks. path holds the
// rendered events of the member the walk is at, each rendered once, as the
// walk enters its edge; a picked member's TraceJSON is a copy of path
// carved from backing.
type traceSetListing struct {
	closure.Picker
	out           TraceSetJSON
	path, backing []string
	buf           []byte
}

func (l *traceSetListing) visit(depth int, last trace.Event, maximal bool) bool {
	pick, more := l.Pick(maximal)
	if !pick && !more {
		return false
	}
	if depth > 0 {
		if l.path == nil {
			l.path = make([]string, 0, l.out.MaxLen)
		}
		l.buf = last.AppendTo(l.buf[:0])
		l.path = append(l.path[:depth-1], string(l.buf))
	}
	if pick {
		t := TraceJSON{}
		if depth > 0 {
			if l.backing == nil {
				l.backing = make([]string, 0, cap(l.out.Traces))
			}
			start := len(l.backing)
			l.backing = append(l.backing, l.path...)
			t = l.backing[start:len(l.backing):len(l.backing)]
		}
		l.out.Traces = append(l.out.Traces, t)
	}
	return more
}

// ViolationJSON is a counterexample to P sat R.
type ViolationJSON struct {
	Trace TraceJSON `json:"trace"`
	// Hist renders the per-channel histories ch(trace) the assertion was
	// evaluated against.
	Hist string `json:"hist"`
}

// RefusalJSON is a refusal-level counterexample: a stable state reached
// after Trace whose acceptance (the complete set of events it offers) is
// Acceptance — empty for a deadlock.
type RefusalJSON struct {
	Trace TraceJSON `json:"trace"`
	// Acceptance lists every event the violating stable state offers, as
	// "chan.msg" strings; empty means the state is deadlocked.
	Acceptance []string `json:"acceptance"`
	// Deadlock reports that the acceptance is empty.
	Deadlock bool `json:"deadlock,omitempty"`
}

func encodeAcceptance(a failures.Acceptance) []string {
	out := make([]string, 0, len(a))
	for _, e := range a {
		out = append(out, e.String())
	}
	return out
}

// SatResultJSON is the wire form of a sat-check Result.
type SatResultJSON struct {
	OK             bool           `json:"ok"`
	Counterexample *ViolationJSON `json:"counterexample,omitempty"`
	// Refusal is the counterexample of a behavioural assertion checked
	// under the failures model; Counterexample and Refusal are mutually
	// exclusive.
	Refusal *RefusalJSON `json:"refusal,omitempty"`
	// Model names the semantic model the verdict was computed under.
	Model string `json:"model"`
	// Vacuous reports a behavioural assertion evaluated under the trace
	// model, where it holds for want of expressiveness.
	Vacuous       bool `json:"vacuous,omitempty"`
	TracesChecked int  `json:"traces_checked"`
	Depth         int  `json:"depth"`
}

// EncodeSatResult renders a model-checking verdict.
func EncodeSatResult(r CheckResult) SatResultJSON {
	out := SatResultJSON{
		OK:            r.OK,
		Model:         r.Model.String(),
		Vacuous:       r.Vacuous,
		TracesChecked: r.TracesChecked,
		Depth:         r.Depth,
	}
	if r.Counter != nil {
		out.Counterexample = &ViolationJSON{
			Trace: EncodeTrace(r.Counter.Trace),
			Hist:  r.Counter.Hist.String(),
		}
	}
	if r.Refusal != nil {
		out.Refusal = &RefusalJSON{
			Trace:      EncodeTrace(r.Refusal.Trace),
			Acceptance: encodeAcceptance(r.Refusal.Acceptance),
			Deadlock:   len(r.Refusal.Acceptance) == 0,
		}
	}
	return out
}

// RefineResultJSON is the wire form of a refinement verdict.
type RefineResultJSON struct {
	OK bool `json:"ok"`
	// Model names the semantic model the verdict was computed under.
	Model string `json:"model"`
	// Witness is a trace of the implementation the specification cannot
	// perform — or, for a failures-level violation, the trace after which
	// the refusals come apart — when OK is false.
	Witness TraceJSON `json:"witness,omitempty"`
	// Failure is the counterexample failure (s, X) of a failures-model
	// violation: after Witness the implementation may stop in a stable
	// state offering exactly Acceptance (refusing everything else), which
	// no specification acceptance permits. Nil for trace-level violations.
	Failure *RefusalJSON `json:"failure,omitempty"`
	Depth   int          `json:"depth"`
}

// EncodeRefineResult renders a refinement verdict.
func EncodeRefineResult(r RefineResult) RefineResultJSON {
	out := RefineResultJSON{OK: r.OK, Model: r.Model.String(), Depth: r.Depth}
	if r.Witness != nil {
		out.Witness = EncodeTrace(r.Witness)
	}
	if r.Failure != nil && r.Failure.ImplAcceptance != nil {
		out.Failure = &RefusalJSON{
			Trace:      EncodeTrace(r.Failure.Trace),
			Acceptance: encodeAcceptance(*r.Failure.ImplAcceptance),
			Deadlock:   len(*r.Failure.ImplAcceptance) == 0,
		}
	}
	return out
}

// AssertResultJSON is the wire form of one checked assert declaration.
type AssertResultJSON struct {
	// Decl is the assert clause as written in the source.
	Decl string `json:"decl"`
	// Kind is "sat" for sat-asserts, "refine" for refinement asserts.
	Kind string `json:"kind"`
	OK   bool   `json:"ok"`
	// Sat carries the verdict of a sat-assert, Refine of a refinement
	// assert; exactly one is set.
	Sat    *SatResultJSON    `json:"sat,omitempty"`
	Refine *RefineResultJSON `json:"refine,omitempty"`
}

// EncodeAssertResult renders a CheckAll entry.
func EncodeAssertResult(r AssertResult) AssertResultJSON {
	out := AssertResultJSON{Decl: r.Decl.String(), OK: r.OK()}
	if r.Refine != nil {
		out.Kind = "refine"
		rr := EncodeRefineResult(*r.Refine)
		out.Refine = &rr
	} else {
		out.Kind = "sat"
		sr := EncodeSatResult(r.Result)
		out.Sat = &sr
	}
	return out
}

// EncodeAssertResults renders a CheckAll result slice, preserving
// declaration order.
func EncodeAssertResults(results []AssertResult) []AssertResultJSON {
	out := make([]AssertResultJSON, 0, len(results))
	for _, r := range results {
		out = append(out, EncodeAssertResult(r))
	}
	return out
}

// ProveResultJSON is the wire form of one automatic-prover outcome.
type ProveResultJSON struct {
	Decl string `json:"decl"`
	// Name is the defined process the claim is about; Assertion renders
	// the claim proved or attempted.
	Name      string `json:"name"`
	Assertion string `json:"assertion"`
	// Method is "recursion", "recursion (joint)", or "network glue".
	Method string `json:"method"`
	OK     bool   `json:"ok"`
	// Error is the synthesis or checking failure when OK is false.
	Error string `json:"error,omitempty"`
}

// EncodeProveResults renders ProveAsserts outcomes, preserving order.
func EncodeProveResults(results []ProveResult) []ProveResultJSON {
	out := make([]ProveResultJSON, 0, len(results))
	for _, r := range results {
		j := ProveResultJSON{
			Decl:      r.Decl,
			Name:      r.Name,
			Assertion: r.A.String(),
			Method:    r.Method,
			OK:        r.OK,
		}
		if r.Err != nil {
			j.Error = r.Err.Error()
		}
		out = append(out, j)
	}
	return out
}

// ProgressEventJSON is the wire form of one progress snapshot; zero-valued
// counters are elided, so each stage reports only the counters it fills.
type ProgressEventJSON struct {
	Stage                 string `json:"stage"`
	StatesExpanded        int    `json:"states_expanded,omitempty"`
	Frontier              int    `json:"frontier,omitempty"`
	Depth                 int    `json:"depth,omitempty"`
	ChainIterations       int    `json:"chain_iterations,omitempty"`
	ObligationsDischarged int    `json:"obligations_discharged,omitempty"`
	Items                 int    `json:"items,omitempty"`
	Total                 int    `json:"total,omitempty"`
	ElapsedMS             int64  `json:"elapsed_ms"`
	Done                  bool   `json:"done,omitempty"`
}

// EncodeProgress renders a Tracker snapshot (the latest event per engine
// stage, in first-report order).
func EncodeProgress(events []progress.Event) []ProgressEventJSON {
	out := make([]ProgressEventJSON, 0, len(events))
	for _, e := range events {
		out = append(out, ProgressEventJSON{
			Stage:                 e.Stage,
			StatesExpanded:        e.StatesExpanded,
			Frontier:              e.Frontier,
			Depth:                 e.Depth,
			ChainIterations:       e.ChainIterations,
			ObligationsDischarged: e.ObligationsDischarged,
			Items:                 e.Items,
			Total:                 e.Total,
			ElapsedMS:             e.Elapsed.Milliseconds(),
			Done:                  e.Done,
		})
	}
	return out
}
