// Package cli carries the flag plumbing and spec loading every cspsat
// command shares, so the binaries stay thin wrappers over the pkg/csp
// facade. It registers the three uniform flags:
//
//	-timeout D   cancel the run's context after D (0 = no limit)
//	-workers N   check asserts and proof obligations on N goroutines, one
//	             item per claim, or "auto" for one goroutine per CPU
//	-stats       print closure cache/shard statistics after the run
//
// and offers the two uniform verification selectors for tools that opt in
// (ModelFlag / EngineFlag):
//
//	-model M     semantic model for verdicts: traces (default) or failures
//	-engine E    trace engine: op (default), denote, or runtime
//
// Older per-binary spellings (csptrace -den, cspcheck -deadlocks) keep
// working but are deprecated in favour of this pair.
//
// plus the usage text, argument-count checking (exit 2, matching the
// documented contract of every tool), and the "tool: error" reporting
// convention. App.Context additionally wires SIGINT/SIGTERM into the run
// context with distinct cancellation causes, so every binary cancels
// gracefully on Ctrl-C and its error message says whether a run died to
// the -timeout deadline or to an interrupt. cmd/cspserved reuses the same
// flag set and SignalContext for its drain-on-SIGTERM lifecycle.
package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"syscall"
	"time"

	"cspsat/internal/csperr"
	"cspsat/pkg/csp"
)

// App is one command-line tool's shared state.
type App struct {
	// Tool is the binary name used as the error-message prefix.
	Tool string

	// Timeout, Workers, Stats are the uniform flags, populated by Parse.
	Timeout time.Duration
	Workers int
	Stats   bool

	// Nat is the -nat flag when the tool registered it via NatFlag.
	Nat int

	// ModelName is the -model flag when the tool registered it via
	// ModelFlag; resolve it with Model.
	ModelName string

	// EngineName is the -engine flag when the tool registered it via
	// EngineFlag; resolve it with Engine.
	EngineName string

	// StoreDir is the -store flag when the tool registered it via
	// StoreFlag: the artifact store directory shared with cspserved.
	StoreDir string

	// statsDone makes Finish idempotent, so the failure exit paths can
	// emit the -stats report unconditionally without double-printing when
	// a tool already called Finish before deciding to exit non-zero.
	statsDone bool
}

// New registers the uniform flags and the usage function. Call before any
// tool-specific flag definitions.
func New(tool, usage string) *App {
	a := &App{Tool: tool}
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: %s\n", usage)
		flag.PrintDefaults()
	}
	flag.DurationVar(&a.Timeout, "timeout", 0, "cancel the run after this duration, e.g. 30s (0 = no limit)")
	a.Workers = 1
	flag.Var(workersValue{&a.Workers}, "workers",
		"goroutines sharing a run's asserts and proof obligations: a count (<= 1 runs serially) or auto (one per CPU); each trace exploration runs on one goroutine")
	flag.BoolVar(&a.Stats, "stats", false, "print closure cache/shard statistics to stderr after the run")
	return a
}

// workersValue is the -workers flag: an integer worker count, or the
// spelling "auto" for csp.WorkersAuto (one goroutine per CPU).
type workersValue struct{ v *int }

func (w workersValue) String() string {
	if w.v == nil {
		return "1"
	}
	if *w.v == csp.WorkersAuto {
		return "auto"
	}
	return strconv.Itoa(*w.v)
}

func (w workersValue) Set(s string) error {
	if s == "auto" {
		*w.v = csp.WorkersAuto
		return nil
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return fmt.Errorf("want a worker count or \"auto\", got %q", s)
	}
	*w.v = n
	return nil
}

// NatFlag registers the -nat flag with the tool's default width.
func (a *App) NatFlag(def int) {
	flag.IntVar(&a.Nat, "nat", def, "enumeration width of the NAT domain")
}

// ModelFlag registers the uniform -model flag: which semantic model
// verdicts are computed under. Every verification tool takes the same
// spelling, paired with -engine where the tool also picks how trace sets
// are computed.
func (a *App) ModelFlag() {
	flag.StringVar(&a.ModelName, "model", "traces",
		"semantic model for verdicts: traces (the paper's §3 model) or failures (§4 refusal-aware)")
}

// Model resolves the -model flag, exiting 2 on an unknown name.
func (a *App) Model() csp.Model {
	mdl, err := csp.ParseModel(a.ModelName)
	if err != nil {
		a.Fatal(err)
	}
	return mdl
}

// EngineFlag registers the uniform -engine flag: which engine computes
// trace sets. def is the tool's default engine name.
func (a *App) EngineFlag(def string) {
	flag.StringVar(&a.EngineName, "engine", def,
		"trace engine: op (operational explorer), denote (§3.3 approximation chain), or runtime (goroutine walk)")
}

// Engine resolves the -engine flag, exiting 2 on an unknown name.
func (a *App) Engine() csp.Engine {
	e, err := csp.ParseEngine(a.EngineName)
	if err != nil {
		a.Fatal(err)
	}
	return e
}

// StoreFlag registers the -store flag. Tools that register it load specs
// through a store-backed module cache: a spec already persisted (by a
// previous run or by cspserved) skips parse and denotation, and results
// this run computes are persisted back for the next reader.
func (a *App) StoreFlag() {
	flag.StringVar(&a.StoreDir, "store", "", "artifact store directory shared with cspserved (empty = no persistence)")
}

// Parse parses the command line and enforces the positional argument
// count, exiting 2 on mismatch. It returns the positional arguments.
func (a *App) Parse(nargs int) []string {
	flag.Parse()
	if flag.NArg() != nargs {
		flag.Usage()
		os.Exit(2)
	}
	return flag.Args()
}

// Context returns the run context honouring -timeout and the process
// signals: Ctrl-C (SIGINT) and SIGTERM cancel it, so engines unwind
// promptly through their usual cancellation paths (interned shards stay
// valid — see csperr.ErrCanceled) instead of the process dying mid-run.
// The caller should defer cancel.
//
// The two ways the context can die carry distinct causes, so the error an
// engine returns says why the run stopped: a -timeout expiry wraps
// csperr.ErrDeadline, a signal wraps csperr.ErrInterrupted, and both still
// wrap csperr.ErrCanceled for coarse errors.Is dispatch.
func (a *App) Context() (context.Context, context.CancelFunc) {
	return SignalContext(context.Background(), a.Timeout)
}

// SignalContext builds a context canceled by SIGINT/SIGTERM (cause wraps
// csperr.ErrInterrupted, naming the signal) and, when timeout > 0, by a
// deadline (cause wraps csperr.ErrDeadline, naming the budget). A second
// signal while the first is still draining kills the process hard with
// exit status 130, so a wedged engine can always be interrupted twice.
func SignalContext(parent context.Context, timeout time.Duration) (context.Context, context.CancelFunc) {
	base := parent
	cancelTimeout := context.CancelFunc(func() {})
	if timeout > 0 {
		base, cancelTimeout = context.WithTimeoutCause(base, timeout,
			fmt.Errorf("%w (-timeout %v)", csperr.ErrDeadline, timeout))
	}
	ctx, cancel := context.WithCancelCause(base)
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		select {
		case sig := <-ch:
			cancel(fmt.Errorf("%w (%v)", csperr.ErrInterrupted, sig))
			<-ch // a second signal: the user means it
			os.Exit(130)
		case <-ctx.Done():
		}
	}()
	return ctx, func() {
		signal.Stop(ch)
		cancel(nil)
		cancelTimeout()
	}
}

// Fatal reports a load/usage-class error ("tool: err") and exits 2. The
// -stats report, when requested, is emitted first: failing runs are
// exactly the ones whose cache behaviour gets inspected.
func (a *App) Fatal(err error) {
	fmt.Fprintln(os.Stderr, a.Tool+":", err)
	a.Finish()
	os.Exit(2)
}

// Fail reports a run-class error ("tool: err") and exits 1, emitting the
// -stats report like every other exit path.
func (a *App) Fail(err error) {
	fmt.Fprintln(os.Stderr, a.Tool+":", err)
	a.Finish()
	os.Exit(1)
}

// Load parses the .csp file through the facade, exiting 2 on failure.
// With -store set (via StoreFlag) the load goes through a store-backed
// module cache instead: a persisted artifact for the same source skips
// parse+denote, and results the tool stores on the module afterwards are
// persisted for cspserved and later runs. Store trouble is reported and
// degrades to a plain load — persistence is never fatal.
func (a *App) Load(ctx context.Context, path string) *csp.Module {
	opts := csp.Options{NatWidth: a.Nat}
	if a.StoreDir != "" {
		src, err := os.ReadFile(path)
		if err != nil {
			a.Fatal(err)
		}
		if st, err := csp.OpenStore(a.StoreDir); err != nil {
			fmt.Fprintf(os.Stderr, "%s: opening store %s: %v (continuing without persistence)\n", a.Tool, a.StoreDir, err)
		} else {
			cache := csp.NewModuleCache(0)
			cache.SetStore(st, func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, a.Tool+": "+format+"\n", args...)
			})
			m, _, _, err := cache.Load(ctx, string(src), opts)
			if err != nil {
				a.Fatal(fmt.Errorf("%s: %w", path, err))
			}
			return m
		}
	}
	m, err := csp.LoadFile(ctx, path, opts)
	if err != nil {
		a.Fatal(err)
	}
	return m
}

// Proc resolves a process name on the module, exiting 2 on failure.
func (a *App) Proc(m *csp.Module, name string) csp.Proc {
	p, err := m.Proc(name)
	if err != nil {
		a.Fatal(err)
	}
	return p
}

// Finish emits the -stats report to stderr when requested. It is
// idempotent, and Fail/Fatal call it themselves, so every exit path —
// success, check failure, load error — carries the report.
func (a *App) Finish() {
	if a.Stats && !a.statsDone {
		a.statsDone = true
		WriteStats(os.Stderr)
	}
}

// WriteStats reports the closure layer's interning and memoisation
// effectiveness over the whole run: canonical trie nodes interned across
// the lock-striped shards, and how often the operator memo tables answered
// instead of recomputing.
func WriteStats(w io.Writer) {
	s := csp.Stats()
	fmt.Fprintf(w, "\nclosure caches: %d interned nodes across %d shards (%d hits / %d misses, %d evicted in %d rotations)\n",
		s.InternedNodes, s.Shards, s.InternHits, s.InternMisses, s.Evicted, s.Rotations)
	total := s.MemoHits + s.MemoMisses
	rate := 0.0
	if total > 0 {
		rate = float64(s.MemoHits) / float64(total) * 100
	}
	fmt.Fprintf(w, "operator memos: %d hits / %d misses (%.1f%% hit rate)\n", s.MemoHits, s.MemoMisses, rate)
	ops := make([]string, 0, len(s.Ops))
	for name := range s.Ops {
		ops = append(ops, name)
	}
	sort.Strings(ops)
	for _, name := range ops {
		o := s.Ops[name]
		fmt.Fprintf(w, "  %-10s %8d hits %8d misses\n", name, o.Hits, o.Misses)
	}
	fmt.Fprintf(w, "symbol tables: %d chans, %d events, %d chan-sets, %d event-alphabets (append-only)\n",
		s.Symbols.Chans, s.Symbols.Events, s.Symbols.ChanSets, s.Symbols.EventSets)
}
