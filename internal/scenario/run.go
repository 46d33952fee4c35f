// Executing scenarios through pkg/csp and checking the outcomes: the
// cross-engine agreement rule, the refinement hierarchy rule, the
// runtime subset probe, and the scenario's own expectations.
package scenario

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"cspsat/internal/assertion"
	"cspsat/internal/trace"
	"cspsat/internal/value"
	"cspsat/pkg/csp"
)

// Defaults mirroring the CLI and server conventions.
const (
	DefaultNat    = 3
	DefaultMaxLen = 3
	// listLimit caps how many traces a golden artifact lists. Full-set
	// agreement is checked in-process on the hash-consed sets; the listing
	// is the human-readable (and diffable) sample.
	listLimit = 64
)

// HarnessSchema versions the artifact JSON layout itself, alongside the
// wire schema of the embedded pkg/csp encodings.
const HarnessSchema = 1

// Artifact is the deterministic record of one scenario run — the unit
// the golden files commit. Volatile measurements (timings, progress,
// runtime walk contents) never appear here.
type Artifact struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	// SpecHash identifies the module source + options (csp.SourceHash).
	SpecHash string `json:"spec_hash,omitempty"`
	// OK is the scenario-level verdict: traces computed and engines
	// agreeing, all asserts holding, the refinement holding, all proofs
	// found. Error carries the failure when the run itself failed.
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
	// Engines maps engine name to its trace listing (traces scenarios;
	// op and denote only — a runtime walk is sampled, not enumerated).
	Engines map[string]*csp.TraceSetJSON `json:"engines,omitempty"`
	// EnginesAgree reports that every listed deterministic engine
	// produced the identical hash-consed set (pointer-canonical Same).
	EnginesAgree *bool `json:"engines_agree,omitempty"`
	// RuntimeSubset reports the sampled walk's prefix closure was a
	// subset of the op engine's set (traces scenarios listing "runtime").
	RuntimeSubset *bool `json:"runtime_subset,omitempty"`
	// Deadlock reports a reachable stuck configuration (probed when the
	// scenario expects a verdict about it).
	Deadlock *bool `json:"deadlock,omitempty"`
	// Asserts, Refine, Proofs carry the kind-specific wire results.
	Asserts []csp.AssertResultJSON `json:"asserts,omitempty"`
	Refine  *csp.RefineResultJSON  `json:"refine,omitempty"`
	Proofs  []csp.ProveResultJSON  `json:"proofs,omitempty"`
	// Hierarchy cross-checks a failures-model refinement against the
	// trace model (⊑F must imply ⊑T).
	Hierarchy *HierarchyJSON `json:"hierarchy,omitempty"`
}

// HierarchyJSON is the refinement-hierarchy cross-check on one pair.
type HierarchyJSON struct {
	FailuresOK bool `json:"failures_ok"`
	TracesOK   bool `json:"traces_ok"`
	// Consistent is the van-Glabbeek ordering: failures refinement must
	// imply trace refinement.
	Consistent bool `json:"consistent"`
}

// Outcome pairs the artifact with the harness's own complaints: failed
// expectations, engine disagreements, hierarchy violations. An Outcome
// with problems still carries a complete artifact for diffing.
type Outcome struct {
	Artifact Artifact
	Problems []string

	// firstSet is the first deterministic engine's full result, kept for
	// exact membership checks against truncated listings.
	firstSet *csp.TraceResult
}

// Run executes one scenario. The returned error is reserved for harness
// infrastructure failures (an unreadable spec file, cancellation);
// verification failures land in the artifact and problems.
func Run(ctx context.Context, s *Scenario) (*Outcome, error) {
	out := &Outcome{Artifact: Artifact{Name: s.Name, Kind: s.Kind}}
	src, err := s.SourceText()
	if err != nil {
		return nil, err
	}
	opts := csp.Options{NatWidth: s.Nat}
	if opts.NatWidth <= 0 {
		opts.NatWidth = DefaultNat
	}
	out.Artifact.SpecHash = csp.SourceHash(src, opts)
	mod, err := csp.Load(ctx, src, opts)
	if err != nil {
		if ctx.Err() != nil {
			return nil, err
		}
		out.Artifact.Error = err.Error()
		out.checkExpect(s, nil)
		return out, nil
	}
	depth := s.Depth
	if depth <= 0 {
		depth = csp.DefaultDepth
	}

	switch s.Kind {
	case KindTraces:
		err = out.runTraces(ctx, s, mod, depth)
	case KindCheck:
		err = out.runCheck(ctx, s, mod, depth)
	case KindRefine:
		err = out.runRefine(ctx, s, mod, depth)
	case KindProve:
		err = out.runProve(ctx, s, mod, opts.NatWidth)
	}
	if err != nil {
		if ctx.Err() != nil {
			return nil, err
		}
		out.Artifact.Error = err.Error()
		out.Artifact.OK = false
	}
	out.checkExpect(s, mod)
	return out, nil
}

// runTraces computes the set on every listed engine, demands the
// deterministic engines agree on the identical canonical set, and runs
// the runtime sampler as a subset probe.
func (o *Outcome) runTraces(ctx context.Context, s *Scenario, mod *csp.Module, depth int) error {
	p, err := mod.Proc(s.Process)
	if err != nil {
		return err
	}
	o.Artifact.Engines = map[string]*csp.TraceSetJSON{}
	var results []*csp.TraceResult
	var runtimeWanted bool
	for _, name := range s.EngineList() {
		if name == "runtime" {
			runtimeWanted = true
			continue
		}
		engine, err := csp.ParseEngine(name)
		if err != nil {
			return err
		}
		res, err := mod.Traces(ctx, p, csp.EngineOptions{Engine: engine, Depth: depth})
		if err != nil {
			return fmt.Errorf("%s engine: %w", name, err)
		}
		set := csp.EncodeTraceSet(res, false, listLimit)
		o.Artifact.Engines[name] = &set
		results = append(results, res)
	}
	if len(results) > 0 {
		o.firstSet = results[0]
	}
	agree := true
	for i := 1; i < len(results); i++ {
		// Same compares the full hash-consed sets, not the capped
		// listings: pointer equality is structural equality.
		if !results[i].TraceSet().Same(results[0].TraceSet()) {
			agree = false
			o.problemf("engines %s and %s disagree on the full trace set",
				results[0].Engine, results[i].Engine)
		}
	}
	o.Artifact.EnginesAgree = &agree
	o.Artifact.OK = agree

	if runtimeWanted {
		res, err := mod.Traces(ctx, p, csp.EngineOptions{
			Engine: csp.EngineRuntime, Depth: depth,
			Seed: s.Seed, MaxEvents: s.MaxEvents,
		})
		if err != nil {
			return fmt.Errorf("runtime engine: %w", err)
		}
		// The walk itself is scheduler-dependent; the deterministic claim
		// is soundness — everything sampled is a real trace of the process.
		// The walk can outrun the enumerated depth (MaxEvents bounds it,
		// not Depth), so compare each maximal sampled trace truncated to
		// the enumeration bound; prefix closure covers the rest.
		opView := results[0].View()
		subset := true
		for _, tr := range res.View().TracesMax() {
			if len(tr) > depth {
				tr = tr[:depth]
			}
			if !opView.Contains(tr) {
				subset = false
			}
		}
		o.Artifact.RuntimeSubset = &subset
		if !subset {
			o.Artifact.OK = false
			o.problemf("runtime walk left the op trace set (engine soundness violation)")
		}
	}

	if s.Expect.Deadlock != nil {
		dls, err := mod.Deadlocks(ctx, p, csp.CheckOptions{Depth: depth})
		if err != nil {
			return err
		}
		dead := len(dls) > 0
		o.Artifact.Deadlock = &dead
	}
	return nil
}

func (o *Outcome) runCheck(ctx context.Context, s *Scenario, mod *csp.Module, depth int) error {
	mdl, err := csp.ParseModel(s.Model)
	if err != nil {
		return err
	}
	results, err := mod.CheckAll(ctx, csp.CheckOptions{Model: mdl, Depth: depth})
	if err != nil {
		return err
	}
	o.Artifact.Asserts = csp.EncodeAssertResults(results)
	o.Artifact.OK = true
	for _, r := range o.Artifact.Asserts {
		if !r.OK {
			o.Artifact.OK = false
		}
	}
	return nil
}

func (o *Outcome) runRefine(ctx context.Context, s *Scenario, mod *csp.Module, depth int) error {
	mdl, err := csp.ParseModel(s.Model)
	if err != nil {
		return err
	}
	impl, err := mod.Proc(s.Impl)
	if err != nil {
		return err
	}
	spec, err := mod.Proc(s.Spec)
	if err != nil {
		return err
	}
	r, err := mod.Refine(ctx, impl, spec, csp.CheckOptions{Model: mdl, Depth: depth})
	if err != nil {
		return err
	}
	enc := csp.EncodeRefineResult(r.RefineResult)
	o.Artifact.Refine = &enc
	o.Artifact.OK = enc.OK
	if mdl == csp.ModelFailures {
		// The hierarchy rule: ⊑F implies ⊑T. Compute the trace-model
		// verdict on the same pair and record the cross-check.
		tr, err := mod.Refine(ctx, impl, spec, csp.CheckOptions{Model: csp.ModelTraces, Depth: depth})
		if err != nil {
			return err
		}
		h := HierarchyJSON{
			FailuresOK: enc.OK,
			TracesOK:   tr.OK,
			Consistent: !enc.OK || tr.OK,
		}
		o.Artifact.Hierarchy = &h
		if !h.Consistent {
			o.problemf("hierarchy violated: %s ⊑F %s holds but ⊑T fails", s.Impl, s.Spec)
		}
	}
	return nil
}

func (o *Outcome) runProve(ctx context.Context, s *Scenario, mod *csp.Module, nat int) error {
	maxLen := s.MaxLen
	if maxLen <= 0 {
		maxLen = DefaultMaxLen
	}
	results, err := mod.ProveAsserts(ctx, csp.CheckOptions{
		Validity: &assertion.ValidityConfig{
			MaxLen: maxLen,
			// The same default domain the CLI and server use for
			// quantified obligations.
			DefaultDom: value.Union{
				A: value.Nat{SampleWidth: nat},
				B: value.NewEnum(value.Sym("ACK"), value.Sym("NACK")),
			},
		},
	}, nil)
	o.Artifact.Proofs = csp.EncodeProveResults(results)
	if err != nil {
		return err
	}
	o.Artifact.OK = true
	for _, r := range o.Artifact.Proofs {
		if !r.OK {
			o.Artifact.OK = false
		}
	}
	return nil
}

func (o *Outcome) problemf(format string, args ...any) {
	o.Problems = append(o.Problems, fmt.Sprintf(format, args...))
}

// checkExpect diffs the artifact against the scenario's expectations.
func (o *Outcome) checkExpect(s *Scenario, mod *csp.Module) {
	e := &s.Expect
	art := &o.Artifact
	if e.OK != nil && art.OK != *e.OK {
		o.problemf("expected ok=%v, got ok=%v (error %q)", *e.OK, art.OK, art.Error)
	}
	if e.Count != nil || e.MaxLen != nil || len(e.Contains) > 0 || len(e.Absent) > 0 {
		first := art.Engines[s.EngineList()[0]]
		if first == nil {
			o.problemf("trace expectations on a scenario that produced no trace set")
		} else {
			if e.Count != nil && first.Count != *e.Count {
				o.problemf("expected %d traces, got %d", *e.Count, first.Count)
			}
			if e.MaxLen != nil && first.MaxLen != *e.MaxLen {
				o.problemf("expected max trace length %d, got %d", *e.MaxLen, first.MaxLen)
			}
			o.checkMembership(s, mod)
		}
	}
	if e.Deadlock != nil {
		if art.Deadlock == nil {
			o.problemf("deadlock expectation but no deadlock probe ran")
		} else if *art.Deadlock != *e.Deadlock {
			o.problemf("expected deadlock=%v, got %v", *e.Deadlock, *art.Deadlock)
		}
	}
	if len(e.Failed) > 0 || (s.Kind == KindCheck && e.OK != nil && !*e.OK) {
		o.checkFailed(e)
	}
	if e.Witness != nil {
		switch {
		case art.Refine == nil:
			o.problemf("witness expectation on a scenario without a refinement result")
		case art.Refine.OK:
			o.problemf("expected a counterexample witness but the refinement holds")
		default:
			got := strings.Join(art.Refine.Witness, " ")
			if got != *e.Witness {
				o.problemf("expected witness %q, got %q", *e.Witness, got)
			}
		}
	}
}

// checkMembership resolves Contains/Absent against the full computed
// set, so membership is exact even when the artifact's listing is
// truncated.
func (o *Outcome) checkMembership(s *Scenario, mod *csp.Module) {
	e := &s.Expect
	if mod == nil || o.firstSet == nil || (len(e.Contains) == 0 && len(e.Absent) == 0) {
		return
	}
	view := o.firstSet.View()
	for _, raw := range e.Contains {
		t, err := ParseTrace(raw)
		if err != nil {
			o.problemf("expect.contains %q: %v", raw, err)
			continue
		}
		if !view.Contains(t) {
			o.problemf("expected trace %q in the set, not found", raw)
		}
	}
	for _, raw := range e.Absent {
		t, err := ParseTrace(raw)
		if err != nil {
			o.problemf("expect.absent %q: %v", raw, err)
			continue
		}
		if view.Contains(t) {
			o.problemf("trace %q expected absent but present", raw)
		}
	}
}

// checkFailed matches the failing asserts against Expect.Failed: every
// listed substring must match exactly one failing decl, and every
// failing decl must be matched.
func (o *Outcome) checkFailed(e *Expect) {
	var failing []string
	for _, r := range o.Artifact.Asserts {
		if !r.OK {
			failing = append(failing, r.Decl)
		}
	}
	if len(e.Failed) == 0 {
		return
	}
	matched := make([]bool, len(failing))
	for _, want := range e.Failed {
		hit := -1
		for i, decl := range failing {
			if strings.Contains(decl, want) && !matched[i] {
				hit = i
				break
			}
		}
		if hit < 0 {
			o.problemf("expected a failing assert matching %q; failing: %v", want, failing)
			continue
		}
		matched[hit] = true
	}
	for i, decl := range failing {
		if !matched[i] {
			o.problemf("assert %q failed but was not expected to", decl)
		}
	}
}

// ParseTrace parses the golden rendering of a trace: space-separated
// "chan.msg" events, "" for the empty trace. The message is an integer
// when it parses as one, a symbol otherwise; the channel may itself be a
// subscripted array element ("col[2].7" splits at the last dot).
func ParseTrace(s string) (trace.T, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	fields := strings.Fields(s)
	t := make(trace.T, 0, len(fields))
	for _, f := range fields {
		i := strings.LastIndexByte(f, '.')
		if i <= 0 || i == len(f)-1 {
			return nil, fmt.Errorf("event %q is not chan.msg", f)
		}
		ch, msg := f[:i], f[i+1:]
		var v value.V
		if n, err := strconv.ParseInt(msg, 10, 64); err == nil {
			v = value.Int(n)
		} else {
			v = value.Sym(msg)
		}
		t = append(t, trace.Event{Chan: trace.Chan(ch), Msg: v})
	}
	return t, nil
}
