// Package csp is the public facade of this repository: one entry point
// over the parser, the three trace engines (operational explorer,
// denotational approximation chain, goroutine runtime), the model checker,
// the proof checker, and the stable-failures extension.
//
// The engines proliferated their own call conventions as they were built
// (op.Traces vs sem.Denoter vs runtime.Run, each with positional
// arguments); this package replaces those with context-first methods on a
// loaded Module, selected and tuned through options structs:
//
//	mod, err := csp.LoadFile(ctx, "specs/protocol.csp", csp.Options{NatWidth: 2})
//	p, err := mod.Proc("protocol")
//	tr, err := mod.Traces(ctx, p, csp.EngineOptions{Engine: csp.EngineOp, Depth: 8})
//	res, err := mod.CheckAll(ctx, csp.CheckOptions{Depth: 8, Workers: 4})
//
// Every method takes a context.Context and returns promptly after
// cancellation with an error wrapping ErrCanceled; CheckOptions.Workers > 1
// spreads CheckAll's asserts and CheckBatch's proofs across a worker pool
// over the shared intern tables (DESIGN.md §3.2, §3.7). Failure classes
// are exposed as sentinel errors (ErrParse, ErrDepthExceeded,
// ErrCanceled, ErrObligationFailed) for errors.Is dispatch.
package csp

import (
	"context"
	"fmt"
	"math"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cspsat/internal/assertion"
	"cspsat/internal/check"
	"cspsat/internal/closure"
	"cspsat/internal/closure/frozen"
	"cspsat/internal/csperr"
	"cspsat/internal/failures"
	"cspsat/internal/model"
	"cspsat/internal/op"
	"cspsat/internal/parser"
	"cspsat/internal/pool"
	"cspsat/internal/progress"
	"cspsat/internal/proof"
	"cspsat/internal/runtime"
	"cspsat/internal/sem"
	"cspsat/internal/syntax"
	"cspsat/internal/trace"
)

// Sentinel errors for the facade's failure classes. Every error crossing
// the package boundary wraps exactly one of these (or is an I/O error from
// the operating system), so callers dispatch with errors.Is instead of
// string matching.
var (
	// ErrParse wraps every lexical, syntactic, and assert-resolution
	// failure from Load/LoadFile.
	ErrParse = csperr.ErrParse
	// ErrDepthExceeded wraps engine failures where a configured bound was
	// hit (τ-closure state caps, non-stabilising approximation chains).
	ErrDepthExceeded = csperr.ErrDepthExceeded
	// ErrCanceled wraps every error caused by context cancellation or a
	// deadline expiring.
	ErrCanceled = csperr.ErrCanceled
	// ErrObligationFailed wraps proof-checking failures whose root cause is
	// a pure side condition the bounded-validity oracle refuted.
	ErrObligationFailed = csperr.ErrObligationFailed
	// ErrDeadline refines ErrCanceled when the cancellation cause was a
	// deadline expiring (a -timeout flag, a server request budget). Errors
	// carrying it also match ErrCanceled.
	ErrDeadline = csperr.ErrDeadline
	// ErrInterrupted refines ErrCanceled when the cancellation cause was an
	// external interrupt (Ctrl-C, SIGTERM, a client disconnecting). Errors
	// carrying it also match ErrCanceled.
	ErrInterrupted = csperr.ErrInterrupted
	// ErrRefinementFailed marks a completed refinement check whose verdict
	// is "does not refine". It describes a negative verdict, not an engine
	// fault: Module.Refine returns the verdict with a nil error, and
	// Refinement.Err wraps this sentinel for callers that want an error.
	ErrRefinementFailed = csperr.ErrRefinementFailed
)

// Aliases re-exporting the result and callback types the facade's methods
// traffic in, so callers need only import this package.
type (
	// TraceSet is a canonical prefix-closed trace set (a hash-consed trie;
	// pointer equality is structural equality, see TraceSet.Same).
	TraceSet = closure.Set
	// Proc is a process expression.
	Proc = syntax.Proc
	// Assertion is a predicate over traces (the paper's R in "P sat R").
	Assertion = assertion.A
	// Proof is a proof object for the §2.1 inference rules.
	Proof = proof.Proof
	// Claim is a verified conclusion "P sat R".
	Claim = proof.Claim
	// Obligation names one proof for batch checking.
	Obligation = proof.Obligation
	// BatchResult is the per-obligation outcome of CheckBatch.
	BatchResult = proof.BatchResult
	// CheckResult is a model-checking verdict with counterexample.
	CheckResult = check.Result
	// RefineResult is a trace-refinement verdict with witness.
	RefineResult = check.RefineResult
	// AssertDecl is a parsed assert declaration.
	AssertDecl = parser.AssertDecl
	// Progress receives engine progress events; see ProgressEvent.
	Progress = progress.Func
	// ProgressEvent is one progress callback payload.
	ProgressEvent = progress.Event
	// ProgressTracker accumulates the latest event per stage for snapshot
	// reporting (see cspserved's per-request progress).
	ProgressTracker = progress.Tracker
	// CacheStats aggregates the intern and memo table counters.
	CacheStats = closure.CacheStats
	// RunResult is the outcome of executing a process on goroutines.
	RunResult = runtime.Result
	// Monitor observes events during a goroutine run.
	Monitor = runtime.Monitor
	// EventRecord is one communication delivered to a Monitor.
	EventRecord = runtime.EventRecord
	// History is the per-channel communication history a Monitor sees.
	History = trace.History
	// FailuresModel is the §4 stable-failures model of a process.
	FailuresModel = failures.Model
	// FailuresCounterexample distinguishes two failures models.
	FailuresCounterexample = failures.Counterexample
	// Trace is one visible trace.
	Trace = trace.T
	// Deadlock is a reachable stuck configuration.
	Deadlock = op.Deadlock
)

// Engine selects which semantic engine computes a trace set.
type Engine int

const (
	// EngineOp is the operational explorer: exhaustive bounded search of
	// the transition system with τ-closure. The default, and the fastest.
	EngineOp Engine = iota
	// EngineDenote is the literal §3.3 denotational semantics: the
	// approximation chain iterated to stabilisation.
	EngineDenote
	// EngineRuntime executes the process as a goroutine network with true
	// rendezvous and returns the prefix closure of one observed trace — a
	// sampled under-approximation, not the full trace set.
	EngineRuntime
)

func (e Engine) String() string {
	switch e {
	case EngineOp:
		return "op"
	case EngineDenote:
		return "denote"
	case EngineRuntime:
		return "runtime"
	}
	return fmt.Sprintf("Engine(%d)", int(e))
}

// ParseEngine resolves an engine name ("op", "denote", "runtime"; "" means
// EngineOp) — the -engine flag and the wire "engine" field.
func ParseEngine(name string) (Engine, error) {
	switch name {
	case "", "op":
		return EngineOp, nil
	case "denote":
		return EngineDenote, nil
	case "runtime":
		return EngineRuntime, nil
	}
	return 0, fmt.Errorf("csp: unknown engine %q (known: op, denote, runtime)", name)
}

// Model selects the semantic model verdicts are computed under — the
// second axis of every verification request, orthogonal to Engine (which
// picks how trace sets are computed; Model picks what observations count).
// The zero value is ModelTraces, the paper's model, so existing callers
// are unchanged.
type Model = model.Model

const (
	// ModelTraces is the paper's trace model: prefix-closed trace sets,
	// trace refinement, history assertions. Refusals are invisible — STOP
	// satisfies every satisfiable assertion (§4).
	ModelTraces = model.Traces
	// ModelFailures is the §4 stable-failures model: traces plus per-trace
	// acceptance families, so deadlock, internal choice, and refusal
	// assertions become observable.
	ModelFailures = model.Failures
)

// ParseModel resolves a model name ("traces", "failures"; "" means
// ModelTraces) — the -model flag and the wire "model" field.
func ParseModel(name string) (Model, error) { return model.Parse(name) }

// KnownModels lists the selectable models in definition order.
func KnownModels() []Model { return model.Known() }

// DefaultDepth is the trace-length bound used when an options struct
// leaves Depth zero.
const DefaultDepth = 8

// WorkersAuto, set as CheckOptions.Workers (the CLI spelling is -workers
// auto), sizes the worker pool to the machine (runtime.GOMAXPROCS). The
// pool never starts more workers than there are items, so a spec with one
// assert runs inline either way (DESIGN.md §3.7).
const WorkersAuto = pool.WorkersAuto

// DefaultMaxEvents bounds an EngineRuntime walk when EngineOptions leaves
// MaxEvents zero.
const DefaultMaxEvents = 40

// Options configure loading a module.
type Options struct {
	// NatWidth is the enumeration width of the infinite NAT domain in the
	// finite-branching engines. Zero means the package default.
	NatWidth int
	// Funcs supplies the registered assertion functions; nil means the
	// default registry (which includes the paper's protocol function f).
	Funcs *assertion.Registry
}

// EngineOptions select and tune a trace engine.
type EngineOptions struct {
	// Engine picks the semantics; the zero value is EngineOp.
	Engine Engine
	// Depth is the trace-length bound; zero means DefaultDepth.
	Depth int
	// Deprecated: Workers is ignored; every engine runs on the calling
	// goroutine.
	Workers int
	// Progress, when non-nil, receives per-stage progress events.
	// Callbacks must be cheap and goroutine-safe.
	Progress Progress
	// Seed drives the non-deterministic choices of EngineRuntime.
	Seed int64
	// MaxEvents bounds an EngineRuntime walk; zero means DefaultMaxEvents.
	MaxEvents int
}

func (o EngineOptions) depth() int {
	if o.Depth > 0 {
		return o.Depth
	}
	return DefaultDepth
}

// CheckOptions tune the model checker and the proof checker.
type CheckOptions struct {
	// Model selects the semantic model verdicts are computed under; the
	// zero value is ModelTraces. Under ModelFailures, Refine/Refines check
	// stable-failures refinement and behavioural asserts (deadlockfree,
	// offers) are discharged against acceptance families instead of
	// holding vacuously.
	Model Model
	// Depth is the trace-length bound of model checks; zero means
	// DefaultDepth.
	Depth int
	// Workers spreads CheckAll's asserts and CheckBatch's proofs across a
	// pool of that many goroutines when > 1, one item per claim;
	// WorkersAuto sizes the pool to the machine. Each check itself runs
	// serially.
	Workers int
	// Progress, when non-nil, receives per-obligation progress events.
	Progress Progress
	// Validity bounds the discharge of pure proof obligations; nil means
	// the prover defaults (history length ≤ 3, NAT-sampled domains).
	Validity *assertion.ValidityConfig
}

func (o CheckOptions) depth() int {
	if o.Depth > 0 {
		return o.Depth
	}
	return DefaultDepth
}

// TraceResult is the outcome of Module.Traces: the set plus engine-specific
// measurements.
//
// An engine-computed result carries its live interned set in Set. A result
// rehydrated from the artifact store instead carries a frozen arena view
// (Set nil) and serves every read query straight off the stored image;
// the interned set is rebuilt only if someone asks for it (TraceSet), and
// read paths should go through View, which never triggers that rebuild.
type TraceResult struct {
	// Set is the computed prefix-closed trace set. Nil for store-backed
	// results that have not been thawed — use View (reads) or TraceSet
	// (writes) instead of touching Set directly.
	Set *TraceSet
	// Engine records which engine produced the set.
	Engine Engine
	// Iterations is the approximation-chain pass count (EngineDenote only).
	Iterations int
	// Events is the total communication count of the walk, hidden events
	// included (EngineRuntime only).
	Events int

	// frozen is the arena-backed view for store-rehydrated results;
	// thawed caches the one-time rebuild through the interner.
	frozen closure.View
	thawed atomic.Pointer[TraceSet]
}

// TraceView is the read-only query surface shared by live interned sets
// and frozen arena-backed views: size, depth, membership, and listings.
// Both implementations answer every query byte-identically.
type TraceView = closure.View

// View returns the result's read surface: the live set when the engine
// computed one (or a thaw already happened), otherwise the frozen view —
// zero rebuild, zero interning, queries answered off the arena image.
func (r *TraceResult) View() TraceView {
	if r.Set != nil {
		return r.Set
	}
	if s := r.thawed.Load(); s != nil {
		return s
	}
	frozen.CountHit()
	return r.frozen
}

// TraceSet returns the canonical interned set, thawing a frozen-backed
// result on first call (rebuilding bottom-up through the interner, so the
// returned set is pointer-canonical with a freshly computed one). This is
// the write-side escape hatch: persisting, or building new sets on top.
func (r *TraceResult) TraceSet() *TraceSet {
	if r.Set != nil {
		return r.Set
	}
	if s := r.thawed.Load(); s != nil {
		return s
	}
	r.thawed.CompareAndSwap(nil, r.frozen.Thaw())
	return r.thawed.Load()
}

// Module is a loaded .csp module plus everything needed to analyse it.
//
// A Module parses its source lazily: Load parses eagerly (so parse errors
// surface at load time, as always), but a Module rehydrated from the
// artifact store (internal/store) defers the parse until an engine
// actually needs the AST. A store hit whose precomputed results cover the
// request — consulted via CachedTraces / CachedCheck / CachedProve —
// therefore answers without parsing or denoting anything.
type Module struct {
	// src and opts are retained for the lazy parse and for persisting the
	// module as a store artifact. Modules built via FromModule have no
	// source and are not persistable.
	src  string
	opts Options

	// parse guards the lazy parse; the fields below it are set once by
	// parsed (or by FromModule) and read-only afterwards.
	parse    sync.Once
	syn      *syntax.Module
	asserts  []AssertDecl
	env      sem.Env
	funcs    *assertion.Registry
	parseErr error

	// res caches computed results per (engine, depth/bound, process) so
	// resident hosts can serve repeats — and store warm boots — without
	// recomputing; see results.go.
	res resultsCache

	// createdUnix is the artifact creation time carried across persist
	// cycles (zero for modules never stored).
	createdUnix int64
}

// parsed runs the lazy parse on first need and returns its error. For
// deferred modules the source already parsed successfully when it was
// stored, so an error here means the grammar drifted since the artifact
// was written; every method that returns an error calls parsed first and
// propagates it like any load failure.
func (m *Module) parsed() error {
	m.parse.Do(func() {
		if m.syn != nil {
			return
		}
		f, err := parser.Parse(m.src)
		if err != nil {
			m.parseErr = err
			return
		}
		m.setSyntax(f.Module)
		m.asserts = f.Asserts
	})
	return m.parseErr
}

// setSyntax installs a parsed module with its evaluation environment and
// assertion-function registry.
func (m *Module) setSyntax(sm *syntax.Module) {
	m.syn = sm
	m.env = sem.NewEnv(sm, m.opts.NatWidth)
	m.funcs = m.opts.Funcs
	if m.funcs == nil {
		m.funcs = assertion.NewRegistry()
	}
}

// Load parses a .csp source text. Parse failures wrap ErrParse.
func Load(ctx context.Context, src string, opts Options) (*Module, error) {
	if err := pool.Canceled(ctx); err != nil {
		return nil, err
	}
	m := newDeferred(src, opts)
	if err := m.parsed(); err != nil {
		return nil, err
	}
	return m, nil
}

// LoadFile reads and parses a .csp file.
func LoadFile(ctx context.Context, path string, opts Options) (*Module, error) {
	if err := pool.Canceled(ctx); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m, err := Load(ctx, string(data), opts)
	if err != nil {
		return nil, fmt.Errorf("%s:%w", path, err)
	}
	return m, nil
}

// newDeferred returns a Module that parses src on first engine use. Only
// the artifact-store path constructs these; everything else parses eagerly.
func newDeferred(src string, opts Options) *Module {
	return &Module{src: src, opts: opts}
}

// FromModule wraps an already-constructed syntax module (e.g. the paper
// systems built by internal/paper).
func FromModule(sm *syntax.Module, opts Options) *Module {
	m := &Module{opts: opts}
	m.setSyntax(sm)
	return m
}

// Source returns the module's source text; empty for modules built via
// FromModule.
func (m *Module) Source() string { return m.src }

// The four accessors below return zero values when the source does not
// parse; every method that returns an error reports the parse error.

// Syntax returns the parsed module (definitions, sets, constants).
func (m *Module) Syntax() *syntax.Module {
	_ = m.parsed()
	return m.syn
}

// Env returns the module's evaluation environment.
func (m *Module) Env() sem.Env {
	_ = m.parsed()
	return m.env
}

// Funcs returns the module's assertion-function registry.
func (m *Module) Funcs() *assertion.Registry {
	_ = m.parsed()
	return m.funcs
}

// Asserts returns the module's assert declarations in source order.
func (m *Module) Asserts() []AssertDecl {
	_ = m.parsed()
	return m.asserts
}

// Proc resolves a defined process by name; it fails if the name is not
// defined (or is a process array, which needs a subscript). Its errors,
// like those of ProcIdx and CheckAll, start with "core:" because the
// scenario and benchmark goldens pin them byte for byte.
func (m *Module) Proc(name string) (Proc, error) {
	if err := m.parsed(); err != nil {
		return nil, err
	}
	def, ok := m.syn.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("core: process %q not defined", name)
	}
	if def.IsArray() {
		return nil, fmt.Errorf("core: %q is a process array; use ProcIdx", name)
	}
	return syntax.Ref{Name: name}, nil
}

// ProcIdx resolves an element of a process array.
func (m *Module) ProcIdx(name string, idx int64) (Proc, error) {
	if err := m.parsed(); err != nil {
		return nil, err
	}
	def, ok := m.syn.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("core: process %q not defined", name)
	}
	if !def.IsArray() {
		return nil, fmt.Errorf("core: %q is not a process array", name)
	}
	return syntax.Ref{Name: name, Sub: syntax.IntLit{Val: idx}}, nil
}

// Traces computes the visible traces of p under the selected engine. For
// EngineOp and EngineDenote the set is exact to opts.Depth over the sampled
// domains; for EngineRuntime it is the prefix closure of one random walk.
func (m *Module) Traces(ctx context.Context, p Proc, opts EngineOptions) (*TraceResult, error) {
	if err := m.parsed(); err != nil {
		return nil, err
	}
	depth := opts.depth()
	switch opts.Engine {
	case EngineOp:
		x := op.NewExplorer()
		x.Progress = opts.Progress
		set, err := x.TracesContext(ctx, op.NewState(p, m.env), depth)
		if err != nil {
			return nil, err
		}
		return &TraceResult{Set: set, Engine: EngineOp}, nil
	case EngineDenote:
		d := sem.NewDenoter(depth)
		d.Progress = opts.Progress
		set, err := d.DenoteContext(ctx, p, m.env)
		if err != nil {
			return nil, err
		}
		return &TraceResult{Set: set, Engine: EngineDenote, Iterations: d.Iterations()}, nil
	case EngineRuntime:
		res, err := m.Run(ctx, p, opts)
		if err != nil {
			return nil, err
		}
		set := closure.Stop()
		for i := len(res.Trace) - 1; i >= 0; i-- {
			set = closure.Prefix(res.Trace[i], set)
		}
		return &TraceResult{Set: set, Engine: EngineRuntime, Events: len(res.Events)}, nil
	}
	return nil, fmt.Errorf("csp: unknown engine %v", opts.Engine)
}

// Run executes p as a goroutine network with true CSP rendezvous, feeding
// every communication to the monitors in order. ctx is checked before the
// run starts and before every event; a canceled run returns an error
// wrapping ErrCanceled.
func (m *Module) Run(ctx context.Context, p Proc, opts EngineOptions, monitors ...Monitor) (*RunResult, error) {
	if err := pool.Canceled(ctx); err != nil {
		return nil, err
	}
	if err := m.parsed(); err != nil {
		return nil, err
	}
	maxEvents := opts.MaxEvents
	if maxEvents <= 0 {
		maxEvents = DefaultMaxEvents
	}
	var monitor Monitor
	switch len(monitors) {
	case 0:
	case 1:
		monitor = monitors[0]
	default:
		monitor = func(rec EventRecord, hist trace.History) error {
			for _, mo := range monitors {
				if err := mo(rec, hist); err != nil {
					return err
				}
			}
			return nil
		}
	}
	return runtime.Run(ctx, p, runtime.Config{
		Env:       m.env,
		Seed:      opts.Seed,
		MaxEvents: maxEvents,
		Monitor:   monitor,
	})
}

// MonitorSat builds a Monitor evaluating assertion a after every visible
// event of a run, for attaching to Module.Run.
func (m *Module) MonitorSat(a Assertion) Monitor {
	return runtime.MonitorSat(a, m.Env(), m.Funcs())
}

// DotLTS renders the bounded labelled transition system of p as a Graphviz
// digraph.
func (m *Module) DotLTS(p Proc, depth int) (string, error) {
	if err := m.parsed(); err != nil {
		return "", err
	}
	return op.DotLTS(op.NewState(p, m.env), depth)
}

// Checker returns a model checker bound to ctx with the options' model
// and depth.
func (m *Module) Checker(ctx context.Context, opts CheckOptions) *check.Checker {
	ck := check.New(m.Env(), m.Funcs(), opts.depth())
	ck.Ctx = ctx
	ck.Model = opts.Model
	return ck
}

// Sat model-checks "p sat a" to the options' depth under the options'
// model. Behavioural assertions (deadlockfree, offers) hold vacuously
// under ModelTraces and are discharged against acceptance families under
// ModelFailures.
func (m *Module) Sat(ctx context.Context, p Proc, a Assertion, opts CheckOptions) (CheckResult, error) {
	if err := m.parsed(); err != nil {
		return CheckResult{}, err
	}
	return m.Checker(ctx, opts).Sat(p, a)
}

// Refines checks refinement impl ⊑ spec to the options' depth under the
// options' model: trace refinement by default, stable-failures refinement
// under ModelFailures.
func (m *Module) Refines(ctx context.Context, impl, spec Proc, opts CheckOptions) (RefineResult, error) {
	if err := m.parsed(); err != nil {
		return RefineResult{}, err
	}
	return m.Checker(ctx, opts).Refines(impl, spec)
}

// Refinement is the verdict of Module.Refine. A completed check always
// returns a verdict with a nil error — "does not refine" is an answer,
// not a fault; use Err for an error-shaped view wrapping
// ErrRefinementFailed.
type Refinement struct {
	RefineResult
}

// Err returns nil when the refinement holds, and otherwise an error
// wrapping ErrRefinementFailed that renders the counterexample — the
// bridge from verdict-shaped results to errors.Is dispatch (CLI exit
// codes, batch pipelines).
func (r *Refinement) Err() error {
	if r == nil || r.OK {
		return nil
	}
	return fmt.Errorf("%w: %s", ErrRefinementFailed, r.RefineResult)
}

// Refine checks refinement impl ⊑ spec under the options' model and
// returns the verdict: trace inclusion under ModelTraces, stable-failures
// refinement under ModelFailures (where a violation carries the
// counterexample failure (s, X) — the trace s and the acceptance
// complementing the refused set X). The error is non-nil only when the
// check itself could not complete (parse failure, cancellation, budget).
func (m *Module) Refine(ctx context.Context, impl, spec Proc, opts CheckOptions) (*Refinement, error) {
	rr, err := m.Refines(ctx, impl, spec, opts)
	if err != nil {
		return nil, err
	}
	return &Refinement{RefineResult: rr}, nil
}

// Deadlocks searches p for reachable stuck configurations to the options'
// depth.
func (m *Module) Deadlocks(ctx context.Context, p Proc, opts CheckOptions) ([]Deadlock, error) {
	if err := pool.Canceled(ctx); err != nil {
		return nil, err
	}
	if err := m.parsed(); err != nil {
		return nil, err
	}
	return m.Checker(ctx, opts).Deadlocks(p)
}

// AssertResult pairs an assert declaration with its check outcome: Result
// for sat-asserts, Refine for refinement asserts.
type AssertResult struct {
	Decl   AssertDecl
	Result CheckResult
	Refine *RefineResult
}

// OK reports whether the assert held.
func (r AssertResult) OK() bool {
	if r.Refine != nil {
		return r.Refine.OK
	}
	return r.Result.OK
}

// CheckAll model-checks every assert declaration of the module under the
// options' model, expanding quantified sat-asserts over their (sampled)
// domains. The declarations are distributed across a pool of opts.Workers
// goroutines (each check itself runs serially), results come back in
// declaration order, and opts.Progress receives a "check" stage event per
// completed assert. A declaration that pins its own model ("assert P refines Q in
// failures") overrides opts.Model for that declaration.
func (m *Module) CheckAll(ctx context.Context, opts CheckOptions) ([]AssertResult, error) {
	if err := m.parsed(); err != nil {
		return nil, err
	}
	start := time.Now()
	n := len(m.asserts)
	out := make([]AssertResult, n)
	var done atomic.Int64
	err := pool.Run(ctx, opts.Workers, n, func(i int) error {
		decl := m.asserts[i]
		dopts := CheckOptions{Model: opts.Model, Depth: opts.Depth}
		if decl.Model != model.Traces {
			dopts.Model = decl.Model
		}
		ck := m.Checker(ctx, dopts)
		if decl.Refines != nil {
			rr, err := ck.Refines(decl.Proc, decl.Refines)
			if err != nil {
				return fmt.Errorf("core: %s: %w", decl, err)
			}
			out[i] = AssertResult{Decl: decl, Refine: &rr}
		} else {
			res, err := m.checkQuantified(ck, decl.Quants, decl.Proc, decl.A)
			if err != nil {
				return fmt.Errorf("core: %s: %w", decl, err)
			}
			out[i] = AssertResult{Decl: decl, Result: res}
		}
		opts.Progress.Emit(progress.Event{
			Stage:   "check",
			Items:   int(done.Add(1)),
			Total:   n,
			Elapsed: time.Since(start),
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	opts.Progress.Emit(progress.Event{
		Stage:   "check",
		Items:   n,
		Total:   n,
		Elapsed: time.Since(start),
		Done:    true,
	})
	return out, nil
}

// checkQuantified checks p sat a for every instance of the quantified
// variables, stopping at the first violated instance.
func (m *Module) checkQuantified(ck *check.Checker, quants []parser.Quant, p Proc, a Assertion) (CheckResult, error) {
	if len(quants) == 0 {
		return ck.Sat(p, a)
	}
	q := quants[0]
	dom, err := m.env.EvalSet(q.Dom)
	if err != nil {
		return CheckResult{}, err
	}
	total := CheckResult{OK: true, Depth: ck.Depth()}
	for _, v := range dom.Enumerate() {
		inst := syntax.SubstProc(p, q.Var, sem.ValueToExpr(v))
		instA := assertion.SubstVar(a, q.Var, assertion.Lit{Val: v})
		r, err := m.checkQuantified(ck, quants[1:], inst, instA)
		if err != nil {
			return CheckResult{}, fmt.Errorf("%s=%v: %w", q.Var, v, err)
		}
		// The sum saturates at math.MaxInt, as a failures-model count
		// does: min caps the left operand where the addition would wrap.
		// Only trace-model sat asserts can be quantified today, and their
		// counts are traces actually visited, so this is a guard.
		total.TracesChecked = min(total.TracesChecked, math.MaxInt-r.TracesChecked) + r.TracesChecked
		if !r.OK {
			r.TracesChecked = total.TracesChecked
			return r, nil
		}
	}
	return total, nil
}

// Prover returns a proof checker bound to ctx under the options' validity
// configuration; nil Validity means the prover defaults (history length
// ≤ 3, NAT-sampled domains).
func (m *Module) Prover(ctx context.Context, opts CheckOptions) *proof.Checker {
	c := proof.NewChecker(m.Env(), m.Funcs())
	if opts.Validity != nil {
		c.Validity = *opts.Validity
	}
	c.Ctx = ctx
	return c
}

// Check verifies one proof object and returns its conclusion. Failed pure
// side conditions wrap ErrObligationFailed; cancellation wraps ErrCanceled.
func (m *Module) Check(ctx context.Context, p Proof, opts CheckOptions) (Claim, error) {
	if err := m.parsed(); err != nil {
		return Claim{}, err
	}
	return m.Prover(ctx, opts).Check(p)
}

// CheckBatch verifies many independent proofs across opts.Workers
// goroutines; see proof.CheckBatch for the result contract.
func (m *Module) CheckBatch(ctx context.Context, obs []Obligation, opts CheckOptions) ([]BatchResult, error) {
	if err := m.parsed(); err != nil {
		return nil, err
	}
	return proof.CheckBatch(ctx, m.Prover(nil, opts), obs, opts.Workers, opts.Progress)
}

// Failures computes the §4 stable-failures model of p to the options'
// depth.
func (m *Module) Failures(ctx context.Context, p Proc, opts EngineOptions) (*FailuresModel, error) {
	if err := pool.Canceled(ctx); err != nil {
		return nil, err
	}
	if err := m.parsed(); err != nil {
		return nil, err
	}
	return failures.ComputeContext(ctx, p, m.env, opts.depth())
}

// Diverges reports whether p can engage in unbounded hidden chatter within
// the options' depth, with the visible trace after which it can.
func (m *Module) Diverges(ctx context.Context, p Proc, opts EngineOptions) (Trace, bool, error) {
	if err := pool.Canceled(ctx); err != nil {
		return nil, false, err
	}
	if err := m.parsed(); err != nil {
		return nil, false, err
	}
	return failures.Diverges(ctx, p, m.env, opts.depth())
}

// FailuresRefines checks failures refinement impl ⊑F spec; nil means it
// holds, otherwise the counterexample distinguishes them.
func FailuresRefines(impl, spec *FailuresModel) (*FailuresCounterexample, error) {
	return failures.Refines(impl, spec)
}

// FailuresEquivalent checks failures equivalence; nil means equivalent.
func FailuresEquivalent(a, b *FailuresModel) (*FailuresCounterexample, error) {
	return failures.Equivalent(a, b)
}

// FormatAssertResults renders CheckAll results as an aligned report.
func FormatAssertResults(results []AssertResult) string {
	var sb strings.Builder
	for _, r := range results {
		status := "OK  "
		if !r.OK() {
			status = "FAIL"
		}
		if r.Refine != nil {
			fmt.Fprintf(&sb, "%s  %-70s (%s model, depth %d)\n", status, r.Decl.String(), r.Refine.Model, r.Refine.Depth)
			if !r.Refine.OK {
				if r.Refine.Failure != nil && r.Refine.Failure.ImplAcceptance != nil {
					fmt.Fprintf(&sb, "      witness: after %s impl stably offers only %s, which spec never permits\n",
						r.Refine.Witness, r.Refine.Failure.ImplAcceptance)
				} else {
					fmt.Fprintf(&sb, "      witness: impl performs %s which spec cannot\n", r.Refine.Witness)
				}
			}
			continue
		}
		if r.Result.Vacuous {
			fmt.Fprintf(&sb, "%s  %-70s (vacuous under traces model; re-check with -model failures)\n",
				status, r.Decl.String())
			continue
		}
		fmt.Fprintf(&sb, "%s  %-70s (%d traces, depth %d)\n",
			status, r.Decl.String(), r.Result.TracesChecked, r.Result.Depth)
		if !r.Result.OK {
			if r.Result.Refusal != nil {
				fmt.Fprintf(&sb, "      counterexample: %s\n", r.Result.Refusal)
			} else {
				fmt.Fprintf(&sb, "      counterexample: %s\n", r.Result.Counter)
			}
		}
	}
	return sb.String()
}

// Stats aggregates the intern and operator-memo counters of the closure
// layer.
func Stats() CacheStats { return closure.Stats() }

// ResetCaches clears the shared intern and memo tables — between benchmark
// iterations, or to bound memory in a long session.
func ResetCaches() { closure.ResetCaches() }
