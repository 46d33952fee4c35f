package run

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"cspsat/internal/assertion"
	"cspsat/internal/journal"
	"cspsat/internal/value"
	"cspsat/pkg/csp"
)

// The mirror re-enacts internal/server's request path (decode, execute,
// encode, journal) by calling the same public functions in the same
// order, with a span around each call. It exists because the server has no
// spans of its own yet; its answers must digest equal to the server's, which
// proves it does the server's work.

// Sentinels matching the server's, so error bodies digest identically.
var (
	errBadRequest     = errors.New("bad request")
	errUnknownProcess = errors.New("unknown process")
)

// runRequest mirrors the server's request body.
type runRequest struct {
	Kind      string `json:"kind,omitempty"`
	Source    string `json:"source"`
	Process   string `json:"process,omitempty"`
	Engine    string `json:"engine,omitempty"`
	Model     string `json:"model,omitempty"`
	Impl      string `json:"impl,omitempty"`
	Spec      string `json:"spec,omitempty"`
	Depth     int    `json:"depth,omitempty"`
	Nat       int    `json:"nat,omitempty"`
	Workers   int    `json:"workers,omitempty"`
	MaxOnly   bool   `json:"max_only,omitempty"`
	MaxTraces int    `json:"max_traces,omitempty"`
	Seed      int64  `json:"seed,omitempty"`
	MaxEvents int    `json:"max_events,omitempty"`
	MaxLen    int    `json:"maxlen,omitempty"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
}

// runResponse mirrors the server's response body.
type runResponse struct {
	Schema    int                     `json:"schema"`
	Kind      string                  `json:"kind"`
	SpecHash  string                  `json:"spec_hash,omitempty"`
	CacheHit  bool                    `json:"cache_hit"`
	OK        bool                    `json:"ok"`
	Error     string                  `json:"error,omitempty"`
	Status    int                     `json:"status,omitempty"`
	Traces    *csp.TraceSetJSON       `json:"traces,omitempty"`
	Asserts   []csp.AssertResultJSON  `json:"asserts,omitempty"`
	Proofs    []csp.ProveResultJSON   `json:"proofs,omitempty"`
	Refine    *csp.RefineResultJSON   `json:"refine,omitempty"`
	Progress  []csp.ProgressEventJSON `json:"progress,omitempty"`
	ElapsedMS int64                   `json:"elapsed_ms"`
}

// Server defaults (internal/server Config.withDefaults).
const (
	defaultNat       = 3
	defaultWorkers   = 1
	defaultMaxTraces = 10000
	requestTimeout   = 30 * time.Second
)

// mirror holds the state a server holds: a module cache (with the store
// attached for store-spill) and a journal.
type mirror struct {
	cache   *csp.ModuleCache
	journal *journal.Writer
	t       *tracer // nil: untraced

	// err is the first journal failure; the pass reports it at the end.
	errOnce sync.Once
	err     error
}

// serve answers and journals one request the way the server's runHandler
// does and returns the status and body.
func (m *mirror) serve(path string, raw []byte) (int, []byte) {
	status, body := m.respond(path, raw)
	m.record(path, status, raw, body)
	return status, body
}

// respond answers one request — decode, execute, encode — without
// journaling it.
func (m *mirror) respond(path string, raw []byte) (int, []byte) {
	kind := path[len("/v1/"):]
	var req runRequest
	sp := m.t.start()
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	m.t.end(sp, spanDecode)
	if err != nil {
		sp = m.t.start()
		body := marshalJSON(&runResponse{Schema: csp.WireSchema, Kind: kind, Error: "decoding request: " + err.Error()})
		m.t.end(sp, spanEncode)
		return http.StatusBadRequest, body
	}
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	resp, err := m.execute(ctx, kind, req)
	status := statusFor(err)
	if err != nil {
		resp.Error = err.Error()
	}
	sp = m.t.start()
	body := marshalJSON(resp)
	m.t.end(sp, spanEncode)
	return status, body
}

// record journals the exchange like the server's record.
func (m *mirror) record(path string, status int, raw, body []byte) {
	sp := m.t.start()
	err := m.journal.Append(journal.Record{
		Time:       time.Now().UnixNano(),
		Method:     "POST",
		Path:       path,
		Status:     status,
		Request:    raw,
		RespDigest: journal.Digest(body),
		RespBytes:  len(body),
	})
	m.t.end(sp, spanJournal)
	if err != nil {
		m.errOnce.Do(func() { m.err = fmt.Errorf("mirror journal: %w", err) })
	}
}

// execute mirrors the server's execute, span by span.
func (m *mirror) execute(ctx context.Context, kind string, req runRequest) (*runResponse, error) {
	start := time.Now()
	resp := &runResponse{Schema: csp.WireSchema, Kind: kind}
	if req.Source == "" {
		return resp, fmt.Errorf("%w: missing \"source\"", errBadRequest)
	}
	nat := req.Nat
	if nat <= 0 {
		nat = defaultNat
	}
	depth := req.Depth
	if depth <= 0 {
		depth = csp.DefaultDepth
	}
	workers := req.Workers
	if workers <= 0 && workers != csp.WorkersAuto {
		workers = defaultWorkers
	}

	sp := m.t.start()
	mod, hash, hit, err := m.cache.Load(ctx, req.Source, csp.Options{NatWidth: nat})
	m.t.endCache(sp)
	resp.SpecHash = hash
	resp.CacheHit = hit
	if err != nil {
		return resp, err
	}

	var tracker csp.ProgressTracker
	defer func() {
		sp := m.t.start()
		resp.Progress = csp.EncodeProgress(tracker.Snapshot())
		m.t.end(sp, spanEncode)
		resp.ElapsedMS = time.Since(start).Milliseconds()
	}()

	switch kind {
	case "traces":
		if req.Process == "" {
			return resp, fmt.Errorf("%w: missing \"process\"", errBadRequest)
		}
		engine, err := csp.ParseEngine(req.Engine)
		if err != nil {
			return resp, fmt.Errorf("%w: unknown engine %q", errBadRequest, req.Engine)
		}
		limit := defaultMaxTraces
		if req.MaxTraces > 0 && req.MaxTraces < limit {
			limit = req.MaxTraces
		}
		sp := m.t.start()
		res, ok := mod.CachedTraces(engine, depth, req.Process)
		m.t.endLookup(sp, ok)
		if ok {
			sp = m.t.start()
			set := csp.EncodeTraceSet(res, req.MaxOnly, limit)
			m.t.end(sp, spanEncode)
			resp.Traces = &set
			resp.OK = true
			return resp, nil
		}
		sp = m.t.start()
		p, err := mod.Proc(req.Process)
		m.t.end(sp, spanParse)
		if err != nil {
			return resp, fmt.Errorf("%w: %v", errUnknownProcess, err)
		}
		sp = m.t.start()
		res, err = mod.Traces(ctx, p, csp.EngineOptions{
			Engine:    engine,
			Depth:     depth,
			Workers:   workers,
			Progress:  tracker.Func(),
			Seed:      req.Seed,
			MaxEvents: req.MaxEvents,
		})
		m.t.end(sp, spanTraces)
		if err != nil {
			return resp, err
		}
		sp = m.t.start()
		mod.StoreTraces(engine, depth, req.Process, res)
		m.t.end(sp, spanStore)
		sp = m.t.start()
		set := csp.EncodeTraceSet(res, req.MaxOnly, limit)
		m.t.end(sp, spanEncode)
		resp.Traces = &set
		resp.OK = true
		return resp, nil

	case "check":
		mdl, err := csp.ParseModel(req.Model)
		if err != nil {
			return resp, fmt.Errorf("%w: %v", errBadRequest, err)
		}
		var encoded []csp.AssertResultJSON
		ok := false
		if mdl == csp.ModelTraces {
			sp := m.t.start()
			encoded, ok = mod.CachedCheck(depth)
			m.t.endLookup(sp, ok)
		}
		if !ok {
			sp := m.t.start()
			results, err := mod.CheckAll(ctx, csp.CheckOptions{
				Model:    mdl,
				Depth:    depth,
				Workers:  workers,
				Progress: tracker.Func(),
			})
			m.t.end(sp, spanCheck)
			if err != nil {
				return resp, err
			}
			sp = m.t.start()
			encoded = csp.EncodeAssertResults(results)
			m.t.end(sp, spanEncode)
			if mdl == csp.ModelTraces {
				sp = m.t.start()
				mod.StoreCheck(depth, encoded)
				m.t.end(sp, spanStore)
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
		mdl, err := csp.ParseModel(req.Model)
		if err != nil {
			return resp, fmt.Errorf("%w: %v", errBadRequest, err)
		}
		sp := m.t.start()
		cached, ok := mod.CachedRefine(mdl, depth, req.Impl, req.Spec)
		m.t.endLookup(sp, ok)
		if ok {
			resp.Refine = &cached
			resp.OK = cached.OK
			return resp, nil
		}
		sp = m.t.start()
		impl, err := mod.Proc(req.Impl)
		m.t.end(sp, spanParse)
		if err != nil {
			return resp, fmt.Errorf("%w: %v", errUnknownProcess, err)
		}
		sp = m.t.start()
		spec, err := mod.Proc(req.Spec)
		m.t.end(sp, spanParse)
		if err != nil {
			return resp, fmt.Errorf("%w: %v", errUnknownProcess, err)
		}
		sp = m.t.start()
		r, err := mod.Refine(ctx, impl, spec, csp.CheckOptions{Model: mdl, Depth: depth, Workers: workers})
		m.t.end(sp, spanRefine)
		if err != nil {
			return resp, err
		}
		sp = m.t.start()
		enc := csp.EncodeRefineResult(r.RefineResult)
		m.t.end(sp, spanEncode)
		sp = m.t.start()
		mod.StoreRefine(mdl, depth, req.Impl, req.Spec, enc)
		m.t.end(sp, spanStore)
		resp.Refine = &enc
		resp.OK = enc.OK
		return resp, nil

	case "prove":
		maxLen := req.MaxLen
		if maxLen <= 0 {
			maxLen = 3
		}
		sp := m.t.start()
		encoded, ok := mod.CachedProve(maxLen)
		m.t.endLookup(sp, ok)
		if !ok {
			sp := m.t.start()
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
			m.t.end(sp, spanProve)
			sp = m.t.start()
			encoded = csp.EncodeProveResults(results)
			m.t.end(sp, spanEncode)
			resp.Proofs = encoded
			if err != nil {
				return resp, err
			}
			sp = m.t.start()
			mod.StoreProve(maxLen, encoded)
			m.t.end(sp, spanStore)
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

// statusFor mirrors the server's status mapping for the outcomes a
// benchmark request can have.
func statusFor(err error) int {
	switch {
	case err == nil, errors.Is(err, csp.ErrRefinementFailed):
		return http.StatusOK
	case errors.Is(err, csp.ErrParse), errors.Is(err, errBadRequest):
		return http.StatusBadRequest
	case errors.Is(err, csp.ErrCanceled):
		return http.StatusServiceUnavailable
	case errors.Is(err, csp.ErrDepthExceeded):
		return http.StatusUnprocessableEntity
	case errors.Is(err, errUnknownProcess):
		return http.StatusNotFound
	}
	return http.StatusInternalServerError
}

// marshalJSON encodes a body the way the server does: no HTML escaping,
// trailing newline.
func marshalJSON(body any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(body); err != nil {
		return nil
	}
	return buf.Bytes()
}
