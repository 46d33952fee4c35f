// Request decoding, verification dispatch, and response encoding for the
// /v1 endpoints. The single-run endpoints (/v1/traces, /v1/check,
// /v1/prove, /v1/refine) and /v1/batch share one execution core, so a
// batch item behaves exactly like the corresponding standalone request —
// same defaults, same module cache, same error mapping. Every response
// body carries "schema" (csp.WireSchema).
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"context"

	"cspsat/internal/assertion"
	"cspsat/internal/pool"
	"cspsat/internal/value"
	"cspsat/pkg/csp"
)

// Sentinels for request-shaped failures, mapped to 400/404 by statusFor.
var (
	errBadRequest     = errors.New("bad request")
	errUnknownProcess = errors.New("unknown process")
)

// runRequest is the body of a verification request. In a batch, Kind
// selects the endpoint; standalone endpoints imply it.
type runRequest struct {
	// Kind is "traces", "check", "prove", or "refine" (batch items only).
	Kind string `json:"kind,omitempty"`
	// Source is the .csp module text.
	Source string `json:"source"`
	// Process names the root process (/v1/traces only).
	Process string `json:"process,omitempty"`
	// Engine picks the trace engine: "op" (default), "denote", "runtime".
	Engine string `json:"engine,omitempty"`
	// Model picks the semantic model: "traces" (default), "failures"
	// (/v1/check and /v1/refine).
	Model string `json:"model,omitempty"`
	// Impl and Spec name the two processes of a refinement check
	// (/v1/refine only): does Impl refine Spec?
	Impl string `json:"impl,omitempty"`
	Spec string `json:"spec,omitempty"`
	// Depth, Nat, Workers override the server defaults when positive.
	// Workers, the goroutines sharing /v1/check's asserts or /v1/prove's
	// obligations, also accepts -1 (csp.WorkersAuto, one per CPU).
	Depth   int `json:"depth,omitempty"`
	Nat     int `json:"nat,omitempty"`
	Workers int `json:"workers,omitempty"`
	// MaxOnly lists only maximal traces (/v1/traces).
	MaxOnly bool `json:"max_only,omitempty"`
	// MaxTraces lowers the server's cap on how many traces the response
	// lists (/v1/traces); it can never raise it. A truncated listing holds
	// the least traces in canonical order, and the response marks it.
	MaxTraces int `json:"max_traces,omitempty"`
	// Seed and MaxEvents drive the runtime engine (/v1/traces).
	Seed      int64 `json:"seed,omitempty"`
	MaxEvents int   `json:"max_events,omitempty"`
	// MaxLen bounds validity obligations (/v1/prove; default 3).
	MaxLen int `json:"maxlen,omitempty"`
	// TimeoutMS lowers the request budget below the server's
	// RequestTimeout; it can never raise it.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// runResponse is the body of a verification response. Error and Status
// are filled on failure (Status only inside batch results, where the
// outer HTTP status cannot carry per-item codes).
type runResponse struct {
	// Schema is the wire schema version (csp.WireSchema), stamped into
	// every /v1/* response body; see DESIGN.md §3.6 for the compatibility
	// rule.
	Schema   int    `json:"schema"`
	Kind     string `json:"kind"`
	SpecHash string `json:"spec_hash,omitempty"`
	// CacheHit reports whether the module came from the module cache.
	CacheHit bool `json:"cache_hit"`
	// OK is the overall verdict: traces computed, all asserts held, all
	// proofs found, refinement holds. A completed refinement check whose
	// verdict is "does not refine" is OK=false with HTTP 200 — the verdict
	// is the answer, not a server fault.
	OK     bool   `json:"ok"`
	Error  string `json:"error,omitempty"`
	Status int    `json:"status,omitempty"`
	// Exactly one of Traces/Asserts/Proofs/Refine is set, by Kind.
	Traces  *csp.TraceSetJSON      `json:"traces,omitempty"`
	Asserts []csp.AssertResultJSON `json:"asserts,omitempty"`
	Proofs  []csp.ProveResultJSON  `json:"proofs,omitempty"`
	Refine  *csp.RefineResultJSON  `json:"refine,omitempty"`
	// Progress is the engine's final per-stage snapshot for this request.
	Progress  []csp.ProgressEventJSON `json:"progress,omitempty"`
	ElapsedMS int64                   `json:"elapsed_ms"`
}

// maxNat caps a request's NAT sample width. The engines enumerate the
// sample at every unsynchronised input, so the width sizes every such
// expansion; without a cap one request could ask for a slice of any
// length. The corpus uses 2 and the server default is 3.
const maxNat = 64

// maxDepth caps a request's trace-length bound. The explorer recurses
// once per trace step, so an uncapped depth overflows the goroutine
// stack, which no recover catches; depth also sizes the denoter's
// approximation window. The corpus and the benchmark use at most 8.
const maxDepth = 64

// maxEvents caps a runtime-engine request's walk length at the runtime's
// own default. The walk checks the request context before every event;
// the cap bounds the trace, event log and history a walk holds.
const maxEvents = 1024

// maxHistoryLen caps a /v1/prove request's maxlen: bounded validity's
// case cap counts histories, not how long each one is. The corpus uses 4
// and the default is 3.
const maxHistoryLen = 8

// maxBatch caps how many requests one /v1/batch carries, and maxWorkers
// how many goroutines a request may ask for. A batch holds one admission
// slot, so without them one body could run thousands of items at once.
const (
	maxBatch   = 64
	maxWorkers = 64
)

// workers resolves a request's worker count: a positive count up to
// maxWorkers or csp.WorkersAuto (-1, one goroutine per CPU); anything
// else falls back to the server default.
func (s *Server) workers(n int) (int, error) {
	switch {
	case n > maxWorkers:
		return 0, fmt.Errorf("%w: workers %d exceeds the limit of %d", errBadRequest, n, maxWorkers)
	case n <= 0 && n != csp.WorkersAuto:
		return s.cfg.Workers, nil
	}
	return n, nil
}

// newRunResponse starts a response body with the schema version stamped.
func newRunResponse(kind string) *runResponse {
	return &runResponse{Schema: csp.WireSchema, Kind: kind}
}

// execute runs one verification request on an already-derived engine
// context. It returns the response and the error used for status mapping;
// on error the response still carries Kind/SpecHash/Progress for the body.
func (s *Server) execute(ctx context.Context, kind string, req runRequest) (*runResponse, error) {
	start := time.Now()
	resp := newRunResponse(kind)
	if req.Source == "" {
		return resp, fmt.Errorf("%w: missing \"source\"", errBadRequest)
	}
	if req.Nat > maxNat {
		return resp, fmt.Errorf("%w: nat %d exceeds the limit of %d", errBadRequest, req.Nat, maxNat)
	}
	if req.Depth > maxDepth {
		return resp, fmt.Errorf("%w: depth %d exceeds the limit of %d", errBadRequest, req.Depth, maxDepth)
	}
	if req.MaxEvents > maxEvents {
		return resp, fmt.Errorf("%w: max_events %d exceeds the limit of %d", errBadRequest, req.MaxEvents, maxEvents)
	}
	if req.MaxLen > maxHistoryLen {
		return resp, fmt.Errorf("%w: maxlen %d exceeds the limit of %d", errBadRequest, req.MaxLen, maxHistoryLen)
	}
	workers, err := s.workers(req.Workers)
	if err != nil {
		return resp, err
	}
	nat := req.Nat
	if nat <= 0 {
		nat = s.cfg.NatWidth
	}
	depth := req.Depth
	if depth <= 0 {
		depth = s.cfg.Depth
	}

	mod, hash, hit, err := s.cache.Load(ctx, req.Source, csp.Options{NatWidth: nat})
	resp.SpecHash = hash
	resp.CacheHit = hit
	if err != nil {
		return resp, err
	}

	var tracker csp.ProgressTracker
	defer func() {
		resp.Progress = csp.EncodeProgress(tracker.Snapshot())
		resp.ElapsedMS = time.Since(start).Milliseconds()
	}()

	switch kind {
	case "traces":
		if req.Process == "" {
			return resp, fmt.Errorf("%w: missing \"process\"", errBadRequest)
		}
		engine, err := parseEngine(req.Engine)
		if err != nil {
			return resp, err
		}
		limit := s.cfg.MaxTraces
		if req.MaxTraces > 0 && req.MaxTraces < limit {
			limit = req.MaxTraces
		}
		// Result cache first — a warm-booted module answers without
		// parsing, let alone denoting (Module.CachedTraces never forces
		// the lazy parse; mod.Proc below does).
		if res, ok := mod.CachedTraces(engine, depth, req.Process); ok {
			set := csp.EncodeTraceSet(res, req.MaxOnly, limit)
			resp.Traces = &set
			resp.OK = true
			return resp, nil
		}
		p, err := mod.Proc(req.Process)
		if err != nil {
			return resp, fmt.Errorf("%w: %v", errUnknownProcess, err)
		}
		res, err := mod.Traces(ctx, p, csp.EngineOptions{
			Engine:    engine,
			Depth:     depth,
			Progress:  tracker.Func(),
			Seed:      req.Seed,
			MaxEvents: req.MaxEvents,
		})
		if err != nil {
			return resp, err
		}
		mod.StoreTraces(engine, depth, req.Process, res)
		set := csp.EncodeTraceSet(res, req.MaxOnly, limit)
		resp.Traces = &set
		resp.OK = true
		return resp, nil

	case "check":
		mdl, err := parseModel(req.Model)
		if err != nil {
			return resp, err
		}
		s.metrics.recordModel(mdl)
		// The check-verdict cache (and its persisted artifact block) holds
		// the trace-model verdicts; the failures model can flip behavioural
		// and refinement verdicts, so non-default models always recompute.
		var encoded []csp.AssertResultJSON
		ok := false
		if mdl == csp.ModelTraces {
			encoded, ok = mod.CachedCheck(depth)
		}
		if !ok {
			results, err := mod.CheckAll(ctx, csp.CheckOptions{
				Model:    mdl,
				Depth:    depth,
				Workers:  workers,
				Progress: tracker.Func(),
			})
			if err != nil {
				return resp, err
			}
			encoded = csp.EncodeAssertResults(results)
			if mdl == csp.ModelTraces {
				mod.StoreCheck(depth, encoded)
			}
		}
		resp.Asserts = encoded
		resp.OK = true
		for _, r := range encoded {
			if !r.OK {
				resp.OK = false
			}
		}
		return resp, nil

	case "refine":
		if req.Impl == "" || req.Spec == "" {
			return resp, fmt.Errorf("%w: refine needs both \"impl\" and \"spec\"", errBadRequest)
		}
		mdl, err := parseModel(req.Model)
		if err != nil {
			return resp, err
		}
		s.metrics.recordModel(mdl)
		// Result cache first: a warm-booted module answers a repeat verdict
		// without parsing (the cache key is the request's process names, so
		// the lookup never forces the lazy parse).
		if res, ok := mod.CachedRefine(mdl, depth, req.Impl, req.Spec); ok {
			resp.Refine = &res
			resp.OK = res.OK
			return resp, nil
		}
		impl, err := mod.Proc(req.Impl)
		if err != nil {
			return resp, fmt.Errorf("%w: %v", errUnknownProcess, err)
		}
		spec, err := mod.Proc(req.Spec)
		if err != nil {
			return resp, fmt.Errorf("%w: %v", errUnknownProcess, err)
		}
		r, err := mod.Refine(ctx, impl, spec, csp.CheckOptions{
			Model:   mdl,
			Depth:   depth,
			Workers: workers,
		})
		if err != nil {
			return resp, err
		}
		enc := csp.EncodeRefineResult(r.RefineResult)
		mod.StoreRefine(mdl, depth, req.Impl, req.Spec, enc)
		resp.Refine = &enc
		// A failed refinement is a structured 200-with-verdict, mirroring
		// failed proof obligations: OK=false, no error, counterexample in
		// the body.
		resp.OK = enc.OK
		return resp, nil

	case "prove":
		maxLen := req.MaxLen
		if maxLen <= 0 {
			maxLen = 3
		}
		encoded, ok := mod.CachedProve(maxLen)
		if !ok {
			results, err := mod.ProveAsserts(ctx, csp.CheckOptions{
				Workers:  workers,
				Progress: tracker.Func(),
				Validity: &assertion.ValidityConfig{
					MaxLen: maxLen,
					DefaultDom: value.Union{
						A: value.Nat{SampleWidth: nat},
						B: value.NewEnum(value.Sym("ACK"), value.Sym("NACK")),
					},
				},
			}, nil)
			encoded = csp.EncodeProveResults(results)
			resp.Proofs = encoded
			if err != nil {
				return resp, err
			}
			mod.StoreProve(maxLen, encoded)
		}
		resp.Proofs = encoded
		resp.OK = true
		for _, r := range encoded {
			if !r.OK {
				resp.OK = false
			}
		}
		return resp, nil
	}
	return resp, fmt.Errorf("%w: unknown kind %q", errBadRequest, kind)
}

// parseEngine keeps the wire text "unknown engine %q" rather than
// csp.ParseEngine's longer message.
func parseEngine(name string) (csp.Engine, error) {
	engine, err := csp.ParseEngine(name)
	if err != nil {
		return engine, fmt.Errorf("%w: unknown engine %q", errBadRequest, name)
	}
	return engine, nil
}

func parseModel(name string) (csp.Model, error) {
	mdl, err := csp.ParseModel(name)
	if err != nil {
		return mdl, fmt.Errorf("%w: %v", errBadRequest, err)
	}
	return mdl, nil
}

// runHandler serves one single-run endpoint: decode, admit, derive the
// request context, execute, encode — and journal the exchange when the
// server records and the outcome is deterministic.
func (s *Server) runHandler(kind string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req runRequest
		raw, ok := s.admitAndDecode(w, r, kind, &req)
		if !ok {
			return
		}
		defer s.release()
		defer s.inflight.Done()

		ctx, cancel := s.requestContext(r, req.TimeoutMS)
		defer cancel()

		started := time.Now()
		resp, err := s.execute(ctx, kind, req)
		status := statusFor(r, err)
		if err != nil {
			resp.Error = err.Error()
		}
		s.metrics.record(kind, status, time.Since(started))
		body := marshalJSON(resp)
		writeBody(w, status, body)
		s.record(r, status, raw, body)
	}
}

// batchRequest runs many requests in one HTTP call; the batch holds one
// admission slot and fans its items across Workers goroutines.
type batchRequest struct {
	Requests []runRequest `json:"requests"`
	// Workers is the item-level parallelism (default: the server's
	// worker default, at least 1).
	Workers int `json:"workers,omitempty"`
	// TimeoutMS bounds the whole batch.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

type batchResponse struct {
	// Schema is the wire schema version (csp.WireSchema).
	Schema int `json:"schema"`
	// OK is true when every item succeeded.
	OK bool `json:"ok"`
	// Results is index-aligned with the request's Requests.
	Results   []*runResponse `json:"results"`
	ElapsedMS int64          `json:"elapsed_ms"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	raw, ok := s.admitAndDecode(w, r, "batch", &req)
	if !ok {
		return
	}
	defer s.release()
	defer s.inflight.Done()

	workers, err := s.workers(req.Workers)
	switch {
	case len(req.Requests) == 0:
		err = errors.New("empty batch")
	case len(req.Requests) > maxBatch:
		err = fmt.Errorf("%w: batch of %d requests exceeds the limit of %d", errBadRequest, len(req.Requests), maxBatch)
	}
	if err != nil {
		s.metrics.record("batch", http.StatusBadRequest, 0)
		writeJSON(w, http.StatusBadRequest, &runResponse{Schema: csp.WireSchema, Kind: "batch", Error: err.Error()})
		return
	}

	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()

	started := time.Now()
	results := make([]*runResponse, len(req.Requests))
	// Item failures are per-result; only cancellation aborts the pool.
	_ = pool.Run(ctx, workers, len(req.Requests), func(i int) error {
		item := req.Requests[i]
		resp, err := s.execute(ctx, item.Kind, item)
		if err != nil {
			resp.Error = err.Error()
			resp.Status = statusFor(r, err)
		}
		results[i] = resp
		return pool.Canceled(ctx)
	})

	out := batchResponse{Schema: csp.WireSchema, OK: true, Results: results, ElapsedMS: time.Since(started).Milliseconds()}
	status := http.StatusOK
	for i, res := range results {
		if res == nil {
			// Never executed: the batch was canceled first.
			err := pool.Canceled(ctx)
			res = newRunResponse(req.Requests[i].Kind)
			if err != nil {
				res.Error = err.Error()
				res.Status = statusFor(r, err)
			}
			results[i] = res
		}
		if res.Error != "" || !res.OK {
			out.OK = false
		}
		// The batch's HTTP status reflects cancellation of the batch
		// itself (all-item failure classes), not individual verdicts.
		if res.Status == http.StatusGatewayTimeout ||
			res.Status == StatusClientClosedRequest ||
			res.Status == http.StatusServiceUnavailable {
			status = res.Status
		}
	}
	s.metrics.record("batch", status, time.Since(started))
	body := marshalJSON(out)
	writeBody(w, status, body)
	// A batch is journalable only when the batch itself completed: any
	// canceled/refused item makes the aggregate response load-dependent.
	if journalable(status) {
		for _, res := range results {
			if res != nil && !journalable(statusOr200(res.Status)) {
				return
			}
		}
		s.record(r, status, raw, body)
	}
}

// statusOr200 maps a batch item's Status field (zero when the item
// succeeded) to the HTTP status it stands for.
func statusOr200(status int) int {
	if status == 0 {
		return http.StatusOK
	}
	return status
}

// admitAndDecode performs the shared front half of every verification
// endpoint: refuse while draining, read and decode the JSON body, and take
// an admission slot. On success the caller owns one slot and one inflight
// count, and receives the raw body bytes for journaling. On failure it has
// already written the response.
func (s *Server) admitAndDecode(w http.ResponseWriter, r *http.Request, kind string, into any) ([]byte, bool) {
	if s.Draining() {
		s.metrics.admissionRefused.Add(1)
		s.metrics.record(kind, http.StatusServiceUnavailable, 0)
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, &runResponse{Schema: csp.WireSchema, Kind: kind, Error: "server draining"})
		return nil, false
	}
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxSourceBytes))
	if err == nil {
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		err = dec.Decode(into)
	}
	if err != nil {
		// A malformed body is a deterministic outcome of the bytes sent, so
		// the exchange is journaled like any other 400.
		s.metrics.record(kind, http.StatusBadRequest, 0)
		body := marshalJSON(&runResponse{Schema: csp.WireSchema, Kind: kind, Error: "decoding request: " + err.Error()})
		writeBody(w, http.StatusBadRequest, body)
		s.record(r, http.StatusBadRequest, raw, body)
		return nil, false
	}
	if !s.acquire(r.Context()) {
		s.metrics.admissionRefused.Add(1)
		if r.Context().Err() != nil {
			s.metrics.record(kind, StatusClientClosedRequest, 0)
			writeJSON(w, StatusClientClosedRequest, &runResponse{Schema: csp.WireSchema, Kind: kind, Error: "client closed request"})
			return nil, false
		}
		s.metrics.record(kind, http.StatusServiceUnavailable, 0)
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, &runResponse{Schema: csp.WireSchema, Kind: kind, Error: "admission limit reached"})
		return nil, false
	}
	s.inflight.Add(1)
	return raw, true
}

// marshalJSON renders a response body exactly as writeJSON has always
// encoded it (no HTML escaping, trailing newline), so handlers can hold
// the bytes they serve — the journal digests the same bytes the client
// received.
func marshalJSON(body any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(body); err != nil {
		// Responses are plain structs of encodable fields; an error here
		// is a programming bug, reported the way the streaming encoder
		// would have: an empty body.
		return nil
	}
	return buf.Bytes()
}

func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	writeBody(w, status, marshalJSON(body))
}
