// Package server is the long-running HTTP verification service over
// pkg/csp: cspserved. It turns the one-shot CLI workload — load a spec,
// run a check, exit — into a resident process that amortises the
// hash-consed intern tables across requests:
//
//   - POST /v1/traces   enumerate visible traces of a process
//   - POST /v1/check    model-check a module's assert clauses
//   - POST /v1/prove    synthesise and check §2.1-style proofs
//   - POST /v1/refine   check refinement impl ⊑ spec under a semantic
//     model ("traces" or "failures"); a failed refinement is a 200 with
//     the counterexample in the body
//   - POST /v1/batch    many of the above in one request
//   - GET  /metrics     request counters, latency, module-cache and
//     closure-cache statistics (also published to expvar)
//   - GET  /healthz     liveness + draining state
//   - /debug/pprof/...  the standard Go profiler endpoints
//
// Three properties make it safe to serve heavy concurrent traffic
// (DESIGN.md §3.3):
//
//  1. A module cache keyed by source hash: repeated specs reuse canonical
//     interned tries, so every request after the first runs against warm
//     memo tables.
//  2. Semaphore-based admission ahead of the engines' worker pools: at
//     most MaxInflight requests hold engines at once; excess requests
//     wait briefly, then are refused with 503 rather than queueing
//     unboundedly.
//  3. Per-request deadlines and cancellation causes: a request budget
//     expiring surfaces as 504 (csperr.ErrDeadline), a client hanging up
//     as 499, and a server drain as 503 (csperr.ErrInterrupted) — relying
//     on the engines' guarantee that cancellation leaves the intern
//     shards valid.
package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cspsat/internal/csperr"
	"cspsat/internal/journal"
	"cspsat/internal/store"
	"cspsat/pkg/csp"
)

// StatusClientClosedRequest is the nginx-convention status for "the client
// disconnected before we could answer"; Go's stdlib has no name for it.
const StatusClientClosedRequest = 499

// Config tunes a Server. The zero value serves with the documented
// defaults.
type Config struct {
	// Depth is the default trace-length bound for requests that leave
	// depth zero (default csp.DefaultDepth).
	Depth int
	// NatWidth is the default NAT sampling width (default 3).
	NatWidth int
	// Workers is the default per-request worker count for asserts, proof
	// obligations and batch items (default 1, i.e. serial; concurrency
	// then comes from serving requests in parallel).
	Workers int
	// RequestTimeout bounds each request's engine time (default 30s).
	// Clients may ask for less via timeout_ms, never for more.
	RequestTimeout time.Duration
	// MaxInflight is the admission semaphore's capacity: how many
	// requests may hold engines concurrently (default 2×GOMAXPROCS).
	MaxInflight int
	// AdmissionWait is how long an arriving request waits for a semaphore
	// slot before 503 (default 10s, capped by the request budget).
	AdmissionWait time.Duration
	// CacheCapacity bounds the module cache (default
	// csp.DefaultModuleCacheCapacity).
	CacheCapacity int
	// MaxSourceBytes caps a request body (default 1 MiB).
	MaxSourceBytes int64
	// MaxTraces caps how many traces a /v1/traces response lists (default
	// 10000). Trace sets grow exponentially with depth while their tries
	// stay small, so an uncapped listing of a deep set would exhaust
	// memory long before the wire; requests may lower the cap via
	// max_traces, never raise it.
	MaxTraces int
	// StoreDir, when non-empty, attaches an on-disk artifact store as the
	// module cache's second tier (memory LRU → disk → compile): compiled
	// modules and their results survive restarts, and WarmBoot rehydrates
	// them on start. A store that cannot be opened is logged and the
	// server runs storeless — persistence is never fatal.
	StoreDir string
	// JournalDir, when non-empty, appends every deterministic /v1/*
	// request (status 200/400/404/422 — not admission refusals,
	// cancellations, or timeouts, whose outcomes depend on server load) to
	// a checksummed journal file in that directory, one file per server
	// run, recording the request body and a digest of the normalized
	// response. `cspscen replay` re-issues a journal against a restarted
	// store-backed server and verifies the responses reproduce
	// byte-identically (internal/journal documents the volatile fields
	// excluded from the digest). A journal that cannot be created is
	// logged and the server runs unjournaled — recording is never fatal.
	JournalDir string
	// Logf receives operational log lines (store warm boot, corrupt
	// artifacts). Nil discards them.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Depth <= 0 {
		c.Depth = csp.DefaultDepth
	}
	if c.NatWidth <= 0 {
		c.NatWidth = 3
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 2 * runtime.GOMAXPROCS(0)
	}
	if c.AdmissionWait <= 0 {
		c.AdmissionWait = 10 * time.Second
	}
	if c.MaxSourceBytes <= 0 {
		c.MaxSourceBytes = 1 << 20
	}
	if c.MaxTraces <= 0 {
		c.MaxTraces = 10000
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Server is the HTTP verification service. Construct with New; it is
// ready to serve once its Handler is mounted.
type Server struct {
	cfg     Config
	cache   *csp.ModuleCache
	admit   chan struct{}
	mux     *http.ServeMux
	metrics *metrics
	start   time.Time

	// journal, when non-nil, records deterministic request/response
	// exchanges for later replay; storeBacked feeds /v1/version.
	journal     *journal.Writer
	storeBacked bool

	// ready gates /readyz: servers without a store are born ready; a
	// store-backed server reports ready only once WarmBoot has finished
	// (successfully or not), so load balancers keep traffic off a cold
	// instance that is still rehydrating artifacts.
	ready atomic.Bool

	// hardCtx is canceled by Abort to cut every in-flight request's
	// engine context during a forced shutdown.
	hardCtx    context.Context
	hardCancel context.CancelCauseFunc

	// draining refuses new work while in-flight requests finish.
	mu       sync.Mutex
	draining bool

	// inflight tracks requests holding admission slots, so a graceful
	// shutdown can wait for the engines themselves (not just the
	// connections, which http.Server.Shutdown watches).
	inflight sync.WaitGroup
}

// New builds a Server.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		cache:   csp.NewModuleCache(cfg.CacheCapacity),
		admit:   make(chan struct{}, cfg.MaxInflight),
		mux:     http.NewServeMux(),
		metrics: newMetrics(),
		start:   time.Now(),
	}
	s.hardCtx, s.hardCancel = context.WithCancelCause(context.Background())

	s.ready.Store(true)
	if cfg.StoreDir != "" {
		if st, err := csp.OpenStore(cfg.StoreDir); err != nil {
			cfg.Logf("cspserved: opening store %s: %v (serving without persistence)", cfg.StoreDir, err)
		} else {
			s.cache.SetStore(st, cfg.Logf)
			s.storeBacked = true
			s.ready.Store(false) // until WarmBoot finishes
		}
	}
	if cfg.JournalDir != "" {
		if jw, err := openJournal(cfg.JournalDir, s.storeBacked, s.start); err != nil {
			cfg.Logf("cspserved: opening journal in %s: %v (serving without request log)", cfg.JournalDir, err)
		} else {
			s.journal = jw
			cfg.Logf("cspserved: journaling requests to %s", jw.Path())
		}
	}

	s.mux.HandleFunc("POST /v1/traces", s.runHandler("traces"))
	s.mux.HandleFunc("POST /v1/check", s.runHandler("check"))
	s.mux.HandleFunc("POST /v1/prove", s.runHandler("prove"))
	s.mux.HandleFunc("POST /v1/refine", s.runHandler("refine"))
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("GET /v1/version", s.handleVersion)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	publishExpvar(s)
	return s
}

// openJournal creates this run's journal file inside dir (created if
// missing), named by the server's start time so successive runs never
// collide and sort chronologically.
func openJournal(dir string, storeBacked bool, start time.Time) (*journal.Writer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	meta := journal.Meta{
		WireSchema: csp.WireSchema,
		Go:         runtime.Version(),
		Start:      start.UnixNano(),
	}
	if storeBacked {
		meta.StoreCodec = store.Version
	}
	name := fmt.Sprintf("requests-%s-%d.cspj", start.UTC().Format("20060102T150405"), os.Getpid())
	return journal.Create(filepath.Join(dir, name), meta)
}

// journalable reports whether a response with this status is a
// deterministic function of the request against this store state — the
// admission class (503), cancellation class (499/504), and internal
// faults are functions of load and timing, so recording them would make
// every faithful replay a mismatch.
func journalable(status int) bool {
	switch status {
	case http.StatusOK, http.StatusBadRequest, http.StatusNotFound, http.StatusUnprocessableEntity:
		return true
	}
	return false
}

// record journals one answered exchange; a nil journal or a non-journalable
// status makes it a no-op. Journal write trouble is logged once per cause,
// never surfaced to the client.
func (s *Server) record(r *http.Request, status int, reqBody, respBody []byte) {
	if s.journal == nil || !journalable(status) {
		return
	}
	err := s.journal.Append(journal.Record{
		Time:       time.Now().UnixNano(),
		Method:     r.Method,
		Path:       r.URL.Path,
		Status:     status,
		Request:    reqBody,
		RespDigest: journal.Digest(respBody),
		RespBytes:  len(respBody),
	})
	if err != nil {
		s.cfg.Logf("cspserved: journal append failed: %v", err)
	}
}

// Close releases the server's owned resources (today: the journal file).
// It does not drain; call BeginDrain/DrainDone first for a graceful stop.
func (s *Server) Close() error {
	if s.journal == nil {
		return nil
	}
	return s.journal.Close()
}

// Handler returns the service's root handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Cache exposes the module cache (for tests and metrics).
func (s *Server) Cache() *csp.ModuleCache { return s.cache }

// WarmBoot rehydrates every artifact in the configured store into the
// module cache and then marks the server ready. It is safe (and a no-op
// beyond the ready flip) without a store. Store trouble during the boot is
// logged per artifact and never fatal: the server comes up ready either
// way, at worst cold.
func (s *Server) WarmBoot(ctx context.Context) (loaded, skipped int) {
	defer s.ready.Store(true)
	loaded, skipped, err := s.cache.WarmBoot(ctx)
	if err != nil {
		s.cfg.Logf("cspserved: warm boot interrupted: %v (%d loaded, %d skipped)", err, loaded, skipped)
		return loaded, skipped
	}
	if loaded+skipped > 0 {
		s.cfg.Logf("cspserved: warm boot: %d modules rehydrated, %d artifacts skipped", loaded, skipped)
	}
	return loaded, skipped
}

// Ready reports whether the server has finished warm boot (always true
// for storeless servers).
func (s *Server) Ready() bool { return s.ready.Load() }

// BeginDrain flips the server into draining mode: /healthz reports
// "draining" and new verification requests are refused with 503, while
// requests already admitted keep running. Call it when SIGTERM arrives,
// before http.Server.Shutdown.
func (s *Server) BeginDrain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
}

// Draining reports whether BeginDrain was called.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// DrainDone returns a channel closed once every admitted request has
// finished. Callers race it against their drain deadline.
func (s *Server) DrainDone() <-chan struct{} {
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	return done
}

// Abort hard-cancels every in-flight request's engine context. The
// engines unwind with errors wrapping csperr.ErrCanceled and the intern
// shards stay valid; the affected requests answer 503.
func (s *Server) Abort() {
	s.hardCancel(fmt.Errorf("%w (server shutting down)", csperr.ErrInterrupted))
}

// acquire takes an admission slot, waiting up to AdmissionWait (but never
// past the request's own context). It reports false when the request
// should be refused instead of served.
func (s *Server) acquire(ctx context.Context) bool {
	select {
	case s.admit <- struct{}{}:
		return true
	default:
	}
	s.metrics.admissionWaits.Add(1)
	wait := time.NewTimer(s.cfg.AdmissionWait)
	defer wait.Stop()
	select {
	case s.admit <- struct{}{}:
		return true
	case <-ctx.Done():
		return false
	case <-wait.C:
		return false
	}
}

func (s *Server) release() { <-s.admit }

// requestContext derives the engine context for one admitted request:
// canceled by the client disconnecting (via r's context), by Abort, and
// by the per-request budget — the budget carries csperr.ErrDeadline as
// its cause so a 504 can be told apart from a 499.
func (s *Server) requestContext(r *http.Request, timeoutMS int64) (context.Context, context.CancelFunc) {
	budget := s.cfg.RequestTimeout
	if timeoutMS > 0 {
		if d := time.Duration(timeoutMS) * time.Millisecond; d < budget {
			budget = d
		}
	}
	ctx, cancel := context.WithCancelCause(r.Context())
	stopAbort := context.AfterFunc(s.hardCtx, func() {
		cancel(context.Cause(s.hardCtx))
	})
	tctx, tcancel := context.WithTimeoutCause(ctx, budget,
		fmt.Errorf("%w (request budget %v)", csperr.ErrDeadline, budget))
	return tctx, func() {
		tcancel()
		stopAbort()
		cancel(nil)
	}
}

// statusFor maps a verification error to the HTTP status the response
// carries. The cancellation refinements matter most in a long-running
// host: deadline → 504, client hung up → 499, server draining → 503.
func statusFor(r *http.Request, err error) int {
	switch {
	case err == nil:
		return http.StatusOK
	case errors.Is(err, csp.ErrParse):
		return http.StatusBadRequest
	case errors.Is(err, csp.ErrDeadline):
		return http.StatusGatewayTimeout
	case errors.Is(err, csp.ErrInterrupted):
		return http.StatusServiceUnavailable
	case errors.Is(err, csp.ErrCanceled):
		if r != nil && r.Context().Err() != nil {
			return StatusClientClosedRequest
		}
		return http.StatusServiceUnavailable
	case errors.Is(err, csp.ErrRefinementFailed):
		// A completed check whose verdict is "does not refine": the body
		// carries the structured verdict, mirroring failed obligations.
		return http.StatusOK
	case errors.Is(err, csp.ErrDepthExceeded):
		return http.StatusUnprocessableEntity
	case errors.Is(err, errBadRequest):
		return http.StatusBadRequest
	case errors.Is(err, errUnknownProcess):
		return http.StatusNotFound
	default:
		return http.StatusInternalServerError
	}
}
