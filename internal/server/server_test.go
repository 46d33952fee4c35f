package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"cspsat/internal/server"
)

// readSpec loads one of the paper's specs from the repository.
func readSpec(t testing.TB, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "specs", name))
	if err != nil {
		t.Fatalf("reading %s: %v", name, err)
	}
	return string(data)
}

// post drives one endpoint of a handler directly (no network), returning
// the status and decoded body. ctx, when non-nil, becomes the request
// context — the tests use it to simulate client disconnects.
func post(t testing.TB, h http.Handler, ctx context.Context, path string, body map[string]any) (int, map[string]any) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", path, bytes.NewReader(raw))
	if ctx != nil {
		req = req.WithContext(ctx)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var out map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("%s: decoding response %q: %v", path, rec.Body.String(), err)
	}
	return rec.Code, out
}

func get(t testing.TB, h http.Handler, path string) (int, map[string]any) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	var out map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("%s: decoding response %q: %v", path, rec.Body.String(), err)
	}
	return rec.Code, out
}

func TestEndpoints(t *testing.T) {
	srv := server.New(server.Config{})
	h := srv.Handler()
	copier := readSpec(t, "copier.csp")

	t.Run("traces", func(t *testing.T) {
		code, out := post(t, h, nil, "/v1/traces", map[string]any{
			"source": copier, "process": "copier", "depth": 4, "workers": 2,
		})
		if code != http.StatusOK || out["ok"] != true {
			t.Fatalf("code=%d body=%v", code, out)
		}
		tr := out["traces"].(map[string]any)
		if tr["engine"] != "op" || tr["count"].(float64) <= 1 {
			t.Fatalf("trace payload: %v", tr)
		}
		if out["spec_hash"] == "" {
			t.Fatal("missing spec_hash")
		}
		// The explorer must have reported progress for the response.
		if _, ok := out["progress"]; !ok {
			t.Fatalf("missing progress snapshot: %v", out)
		}
	})

	t.Run("check with module cache hit", func(t *testing.T) {
		code, out := post(t, h, nil, "/v1/check", map[string]any{"source": copier, "depth": 6})
		if code != http.StatusOK || out["ok"] != true {
			t.Fatalf("code=%d body=%v", code, out)
		}
		if n := len(out["asserts"].([]any)); n != 5 {
			t.Fatalf("want 5 assert results, got %d", n)
		}
		// Same source again: must be served from the module cache.
		_, out = post(t, h, nil, "/v1/check", map[string]any{"source": copier, "depth": 6})
		if out["cache_hit"] != true {
			t.Fatalf("second load of the same source missed the cache: %v", out)
		}
	})

	t.Run("prove", func(t *testing.T) {
		code, out := post(t, h, nil, "/v1/prove", map[string]any{"source": copier})
		if code != http.StatusOK || out["ok"] != true {
			t.Fatalf("code=%d body=%v", code, out)
		}
		methods := map[string]bool{}
		for _, p := range out["proofs"].([]any) {
			pr := p.(map[string]any)
			if pr["ok"] != true {
				t.Fatalf("unproved: %v", pr)
			}
			methods[pr["method"].(string)] = true
		}
		if !methods["network glue"] {
			t.Fatalf("no network-glue proof among %v", methods)
		}
	})

	t.Run("batch", func(t *testing.T) {
		code, out := post(t, h, nil, "/v1/batch", map[string]any{
			"requests": []map[string]any{
				{"kind": "check", "source": copier, "depth": 5},
				{"kind": "traces", "source": copier, "process": "copysys", "depth": 4},
				{"kind": "prove", "source": copier},
			},
			"workers": 3,
		})
		if code != http.StatusOK || out["ok"] != true {
			t.Fatalf("code=%d body=%v", code, out)
		}
		if n := len(out["results"].([]any)); n != 3 {
			t.Fatalf("want 3 results, got %d", n)
		}
	})

	t.Run("violated assert reports ok=false with 200", func(t *testing.T) {
		code, out := post(t, h, nil, "/v1/check", map[string]any{
			"source": "p = a!1 -> p\nassert p sat #a <= 1\n", "depth": 4,
		})
		if code != http.StatusOK || out["ok"] != false {
			t.Fatalf("code=%d body=%v", code, out)
		}
		sat := out["asserts"].([]any)[0].(map[string]any)["sat"].(map[string]any)
		if sat["counterexample"] == nil {
			t.Fatalf("missing counterexample: %v", sat)
		}
	})

	t.Run("astronomical trace set is truncated, not materialised", func(t *testing.T) {
		// The philosophers net at depth 30 holds ~3e14 traces in a tiny
		// shared trie; listing them all would OOM (and used to panic in
		// the slice preallocation). The cap must hold.
		code, out := post(t, h, nil, "/v1/traces", map[string]any{
			"source":     readSpec(t, "philosophers.csp"),
			"process":    "safe",
			"depth":      30,
			"max_traces": 50,
		})
		if code != http.StatusOK || out["ok"] != true {
			t.Fatalf("code=%d error=%v", code, out["error"])
		}
		tr := out["traces"].(map[string]any)
		if tr["truncated"] != true {
			t.Fatalf("listing not marked truncated: count=%v len=%d", tr["count"], len(tr["traces"].([]any)))
		}
		if n := len(tr["traces"].([]any)); n != 50 {
			t.Fatalf("cap not applied: %d traces listed", n)
		}
		if tr["count"].(float64) < 1e12 {
			t.Fatalf("full count not reported: %v", tr["count"])
		}
	})

	t.Run("error mapping", func(t *testing.T) {
		for _, tc := range []struct {
			path    string
			body    map[string]any
			want    int
			wantErr string
		}{
			{"/v1/check", map[string]any{"source": "p = (("}, http.StatusBadRequest, ""},
			{"/v1/traces", map[string]any{"source": copier, "process": "nosuch"}, http.StatusNotFound, `unknown process: core: process "nosuch" not defined`},
			{"/v1/traces", map[string]any{"source": copier}, http.StatusBadRequest, ""},
			{"/v1/check", map[string]any{}, http.StatusBadRequest, ""},
			{"/v1/traces", map[string]any{"source": copier, "process": "copier", "engine": "quantum"}, http.StatusBadRequest, `bad request: unknown engine "quantum"`},
			{"/v1/batch", map[string]any{"requests": []map[string]any{}}, http.StatusBadRequest, ""},
		} {
			code, out := post(t, h, nil, tc.path, tc.body)
			if code != tc.want {
				t.Errorf("%s %v: code=%d want %d (%v)", tc.path, tc.body, code, tc.want, out)
			}
			if tc.wantErr != "" && out["error"] != tc.wantErr {
				t.Errorf("%s %v: error=%q want %q", tc.path, tc.body, out["error"], tc.wantErr)
			}
		}
	})

	t.Run("metrics", func(t *testing.T) {
		code, out := get(t, h, "/metrics")
		if code != http.StatusOK {
			t.Fatalf("metrics: %d", code)
		}
		mc := out["module_cache"].(map[string]any)
		if mc["hits"].(float64) < 1 {
			t.Fatalf("no module cache hits recorded: %v", mc)
		}
		eps := out["endpoints"].(map[string]any)
		for _, kind := range []string{"traces", "check", "prove", "batch"} {
			if eps[kind].(map[string]any)["count"].(float64) < 1 {
				t.Errorf("endpoint %s unreported: %v", kind, eps[kind])
			}
		}
		if _, ok := out["closure"].(map[string]any)["InternedNodes"]; !ok {
			t.Fatalf("closure stats missing: %v", out["closure"])
		}
	})

	t.Run("healthz", func(t *testing.T) {
		code, out := get(t, h, "/healthz")
		if code != http.StatusOK || out["status"] != "ok" {
			t.Fatalf("healthz: %d %v", code, out)
		}
	})
}

// TestRequestDeadline checks that an expiring per-request budget surfaces
// as 504 with the deadline cause in the error, not a generic cancel.
func TestRequestDeadline(t *testing.T) {
	srv := server.New(server.Config{})
	h := srv.Handler()
	mult := readSpec(t, "multiplier.csp")
	// Exploring the multiplier at depth 12 takes several seconds (its
	// states carry data, defeating the memo); the 30ms budget must cut
	// the exploration short.
	code, out := post(t, h, nil, "/v1/traces", map[string]any{
		"source": mult, "process": "multiplier", "depth": 12, "timeout_ms": 30,
	})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("code=%d error=%v", code, out["error"])
	}
	if msg, _ := out["error"].(string); !strings.Contains(msg, "run deadline exceeded") {
		t.Fatalf("error does not name the deadline: %q", msg)
	}
}

// TestFailuresCheckRunawayCapped checks that a failures-model check of a
// process with an unbounded hidden chatter answers 422 at the τ-closure
// cap, inside its timeout_ms, instead of exploring until memory runs out.
// A guard panics if no answer comes at all, since a test that merely
// failed would leave the runaway allocating for the rest of the suite.
func TestFailuresCheckRunawayCapped(t *testing.T) {
	srv := server.New(server.Config{})
	h := srv.Handler()
	const timeout = 5 * time.Second
	name := t.Name()
	guard := time.AfterFunc(3*timeout, func() { panic(fmt.Sprintf("%s: no answer within %v", name, 3*timeout)) })
	defer guard.Stop()
	start := time.Now()
	code, out := post(t, h, nil, "/v1/check", map[string]any{
		"source": "cnt[n:NAT] = c!n -> cnt[n+1]\nsys = chan c; out!0 -> cnt[0]\nassert sys sat deadlockfree\n",
		"model":  "failures", "depth": 3, "timeout_ms": timeout.Milliseconds(),
	})
	if elapsed := time.Since(start); elapsed > timeout {
		t.Errorf("answered after %v, beyond timeout_ms", elapsed)
	}
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("code=%d error=%v", code, out["error"])
	}
	if msg, _ := out["error"].(string); !strings.Contains(msg, "τ-closure exceeded") {
		t.Fatalf("error does not name the τ-closure cap: %q", msg)
	}
}

// TestFailuresTraceCountSaturates checks a failures-model check at the
// request caps, nat 64 and depth 64: a one-place buffer has about 2^192
// traces there, which the model counts over its 65 state lists instead of
// visiting them. traces_checked must stop at the largest int instead of
// wrapping, and the answer must come well inside the default timeout; a
// model that visited every trace would still be walking when it expired.
func TestFailuresTraceCountSaturates(t *testing.T) {
	h := server.New(server.Config{}).Handler()
	raw, err := json.Marshal(map[string]any{
		"source": "buf1 = input?x:NAT -> output!x -> buf1\nassert buf1 sat deadlockfree\n",
		"model":  "failures", "nat": 64, "depth": 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/check", bytes.NewReader(raw)))
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("answered after %v", elapsed)
	}
	if rec.Code != http.StatusOK {
		t.Fatalf("code=%d body=%s", rec.Code, rec.Body)
	}
	var out struct {
		OK      bool `json:"ok"`
		Asserts []struct {
			Sat struct {
				OK            bool        `json:"ok"`
				TracesChecked json.Number `json:"traces_checked"`
			} `json:"sat"`
		} `json:"asserts"`
	}
	dec := json.NewDecoder(rec.Body)
	dec.UseNumber()
	if err := dec.Decode(&out); err != nil {
		t.Fatal(err)
	}
	if !out.OK || len(out.Asserts) != 1 || !out.Asserts[0].Sat.OK {
		t.Fatalf("want one holding assert, got %+v", out)
	}
	if got := out.Asserts[0].Sat.TracesChecked; got != "9223372036854775807" {
		t.Fatalf("traces_checked = %s, want 9223372036854775807", got)
	}
}

// checkCapped posts body with field one above limit, to /v1/traces and as
// a batch item, and expects 400 with the cap's message from both before
// any engine runs; then it posts field at limit and expects 200, so the
// server goes on answering after the refusals.
func checkCapped(t *testing.T, body map[string]any, field string, limit int) {
	t.Helper()
	h := server.New(server.Config{}).Handler()
	with := func(v int) map[string]any {
		b := maps.Clone(body)
		b[field] = v
		return b
	}
	want := fmt.Sprintf("bad request: %s %d exceeds the limit of %d", field, limit+1, limit)

	code, out := post(t, h, nil, "/v1/traces", with(limit+1))
	if code != http.StatusBadRequest || out["error"] != want {
		t.Fatalf("traces: code=%d error=%v, want 400 %q", code, out["error"], want)
	}

	item := with(limit + 1)
	item["kind"] = "traces"
	code, out = post(t, h, nil, "/v1/batch", map[string]any{"requests": []map[string]any{item}})
	if code != http.StatusOK {
		t.Fatalf("batch: code=%d body=%v", code, out)
	}
	res := out["results"].([]any)[0].(map[string]any)
	if res["status"] != float64(http.StatusBadRequest) || res["error"] != want {
		t.Fatalf("batch item: status=%v error=%v, want 400 %q", res["status"], res["error"], want)
	}

	code, out = post(t, h, nil, "/v1/traces", with(limit))
	if code != http.StatusOK || out["ok"] != true {
		t.Fatalf("request at the limit: code=%d error=%v", code, out["error"])
	}
}

// TestNatWidthCapped checks that a NAT sample width above the server's
// cap is refused with 400 before any engine runs, on a standalone request
// and on a batch item alike: an uncapped width of 200,000,000 made the
// input expansion allocate a 12.8 GB slice and killed the process. The
// server must go on answering afterwards.
func TestNatWidthCapped(t *testing.T) {
	checkCapped(t, map[string]any{"source": "p = c?x:NAT -> d!x -> p\n", "process": "p", "depth": 2}, "nat", 64)
}

// TestDepthCapped checks the trace-length cap the same way: the explorer
// recurses once per trace step, and a depth of 100,000,000 overflowed the
// goroutine stack, a fatal error that took every in-flight request down
// with the process.
func TestDepthCapped(t *testing.T) {
	checkCapped(t, map[string]any{"source": "p = a!1 -> p\n", "process": "p"}, "depth", 64)
}

// TestMaxEventsCapped checks the runtime engine's walk-length cap the same
// way: the walk does not watch the request context, and 80,000 events on
// a 50 ms budget answered after minutes.
func TestMaxEventsCapped(t *testing.T) {
	checkCapped(t, map[string]any{"source": "p = a!1 -> p\n", "process": "p", "engine": "runtime"}, "max_events", 1024)
}

// TestMaxLenCapped checks /v1/prove's history-length cap the same way:
// maxlen has no other bound, and at nat 64 each step of it multiplies
// every channel's history count by 66.
func TestMaxLenCapped(t *testing.T) {
	checkCapped(t, map[string]any{"source": "p = a!1 -> p\n", "process": "p"}, "maxlen", 8)
}

// TestWorkersCapped checks the cap on a request's worker count, on a
// single request and a batch item through checkCapped and then on the
// batch's own workers field: a batch holds one admission slot, so its
// workers would otherwise bypass the server's admission limit.
func TestWorkersCapped(t *testing.T) {
	body := map[string]any{"source": "p = a!1 -> p\n", "process": "p", "depth": 2}
	checkCapped(t, body, "workers", 64)

	h := server.New(server.Config{}).Handler()
	item := maps.Clone(body)
	item["kind"] = "traces"
	want := "bad request: workers 65 exceeds the limit of 64"
	code, out := post(t, h, nil, "/v1/batch", map[string]any{"workers": 65, "requests": []map[string]any{item}})
	if code != http.StatusBadRequest || out["error"] != want {
		t.Fatalf("batch workers 65: code=%d error=%v, want 400 %q", code, out["error"], want)
	}
	code, out = post(t, h, nil, "/v1/batch", map[string]any{"workers": 64, "requests": []map[string]any{item}})
	if code != http.StatusOK || out["ok"] != true {
		t.Fatalf("batch workers 64: code=%d body=%v", code, out)
	}
}

// TestBatchLengthCapped checks the cap on how many requests one batch
// carries: 65 answers 400 before any item runs, and 64 answers 200.
func TestBatchLengthCapped(t *testing.T) {
	h := server.New(server.Config{}).Handler()
	batch := func(n int) map[string]any {
		items := make([]map[string]any, n)
		for i := range items {
			items[i] = map[string]any{"kind": "traces", "source": "p = a!1 -> p\n", "process": "p", "depth": 2}
		}
		return map[string]any{"requests": items}
	}
	want := "bad request: batch of 65 requests exceeds the limit of 64"
	code, out := post(t, h, nil, "/v1/batch", batch(65))
	if code != http.StatusBadRequest || out["error"] != want {
		t.Fatalf("65 items: code=%d error=%v, want 400 %q", code, out["error"], want)
	}
	code, out = post(t, h, nil, "/v1/batch", batch(64))
	if code != http.StatusOK || out["ok"] != true || len(out["results"].([]any)) != 64 {
		t.Fatalf("64 items: code=%d ok=%v", code, out["ok"])
	}
}

// TestClientDisconnect checks that a client hanging up mid-request maps
// to 499 — and, more importantly, that the engines unwind cleanly (the
// partests suite checks shard consistency after exactly this pattern).
func TestClientDisconnect(t *testing.T) {
	srv := server.New(server.Config{})
	h := srv.Handler()
	mult := readSpec(t, "multiplier.csp")
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	code, out := post(t, h, ctx, "/v1/traces", map[string]any{
		"source": mult, "process": "multiplier", "depth": 12,
	})
	if code != server.StatusClientClosedRequest {
		t.Fatalf("code=%d error=%v", code, out["error"])
	}
}

// TestAdmissionLimit fills the semaphore with a slow request and checks
// that the excess request is refused with 503 once AdmissionWait expires.
func TestAdmissionLimit(t *testing.T) {
	srv := server.New(server.Config{
		MaxInflight:    1,
		AdmissionWait:  50 * time.Millisecond,
		RequestTimeout: 2 * time.Second,
	})
	h := srv.Handler()
	mult := readSpec(t, "multiplier.csp")

	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		close(started)
		// Holds the only slot for ~500ms.
		post(t, h, nil, "/v1/traces", map[string]any{
			"source": mult, "process": "multiplier", "depth": 12, "timeout_ms": 500,
		})
	}()
	<-started
	time.Sleep(100 * time.Millisecond) // let the slow request take the slot
	code, out := post(t, h, nil, "/v1/check", map[string]any{"source": readSpec(t, "copier.csp")})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("over-admission request: code=%d body=%v", code, out)
	}
	wg.Wait()
	if snap := srv.Snapshot(); snap.AdmissionRefused < 1 {
		t.Fatalf("admission refusal not counted: %+v", snap)
	}
}

// TestGracefulDrain starts a deliberately slow request, begins a drain,
// and checks the three lifecycle properties: new requests are refused
// with 503, the in-flight request still completes (here: with its own
// 504, proving it was not hard-killed by the drain), and DrainDone only
// closes after it finished.
func TestGracefulDrain(t *testing.T) {
	srv := server.New(server.Config{RequestTimeout: 2 * time.Second})
	h := srv.Handler()
	mult := readSpec(t, "multiplier.csp")

	type result struct {
		code int
		body map[string]any
	}
	slow := make(chan result, 1)
	go func() {
		code, out := post(t, h, nil, "/v1/traces", map[string]any{
			"source": mult, "process": "multiplier", "depth": 12, "timeout_ms": 600,
		})
		slow <- result{code, out}
	}()
	time.Sleep(100 * time.Millisecond) // the slow request is now in-flight

	srv.BeginDrain()
	if code, _ := get(t, h, "/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz: %d", code)
	}
	code, out := post(t, h, nil, "/v1/check", map[string]any{"source": readSpec(t, "copier.csp")})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("request during drain: code=%d body=%v", code, out)
	}

	done := srv.DrainDone()
	select {
	case <-done:
		t.Fatal("DrainDone closed while a request was still in flight")
	case <-time.After(50 * time.Millisecond):
	}

	r := <-slow
	if r.code != http.StatusGatewayTimeout {
		t.Fatalf("in-flight request after drain: code=%d error=%v", r.code, r.body["error"])
	}
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("DrainDone did not close after the last request finished")
	}
}

// TestAbortCancelsInflight checks the forced half of shutdown: Abort cuts
// a running request (503, interrupted cause) and the server stays
// consistent for later traffic — the shard-validity guarantee at work.
func TestAbortCancelsInflight(t *testing.T) {
	srv := server.New(server.Config{RequestTimeout: 10 * time.Second})
	h := srv.Handler()
	mult := readSpec(t, "multiplier.csp")

	type result struct {
		code int
		body map[string]any
	}
	slow := make(chan result, 1)
	go func() {
		code, out := post(t, h, nil, "/v1/traces", map[string]any{
			"source": mult, "process": "multiplier", "depth": 12,
		})
		slow <- result{code, out}
	}()
	time.Sleep(100 * time.Millisecond)
	srv.Abort()
	r := <-slow
	if r.code != http.StatusServiceUnavailable {
		t.Fatalf("aborted request: code=%d error=%v", r.code, r.body["error"])
	}
	if msg, _ := r.body["error"].(string); !strings.Contains(msg, "run interrupted") {
		t.Fatalf("aborted request error does not name the interrupt: %q", msg)
	}
}

// TestConcurrentMixedLoad hammers every endpoint concurrently over two
// specs — the -race configuration CI runs is the acceptance criterion for
// the serving path sharing intern shards across requests.
func TestConcurrentMixedLoad(t *testing.T) {
	srv := server.New(server.Config{MaxInflight: 8, Workers: 2})
	h := srv.Handler()
	copier := readSpec(t, "copier.csp")
	protocol := readSpec(t, "protocol.csp")

	const rounds = 6
	var wg sync.WaitGroup
	errs := make(chan string, rounds*4)
	for i := 0; i < rounds; i++ {
		reqs := []struct {
			path string
			body map[string]any
		}{
			{"/v1/check", map[string]any{"source": copier, "depth": 5}},
			{"/v1/traces", map[string]any{"source": protocol, "process": "protocol", "depth": 5, "workers": 2}},
			{"/v1/batch", map[string]any{"requests": []map[string]any{
				{"kind": "check", "source": protocol, "depth": 5},
				{"kind": "traces", "source": copier, "process": "copier", "depth": 5},
			}}},
		}
		if i == 0 {
			// One prover is enough for race coverage of the prove path;
			// a prover per round multiplies the suite's wall clock for no
			// extra interleaving.
			reqs = append(reqs, struct {
				path string
				body map[string]any
			}{"/v1/prove", map[string]any{"source": copier}})
		}
		for _, req := range reqs {
			wg.Add(1)
			go func(path string, body map[string]any) {
				defer wg.Done()
				code, out := post(t, h, nil, path, body)
				if code != http.StatusOK || out["ok"] != true {
					errs <- fmt.Sprintf("%s: code=%d body=%v", path, code, out)
				}
			}(req.path, req.body)
		}
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	snap := srv.Snapshot()
	if snap.ModuleCache.Hits == 0 {
		t.Fatalf("concurrent same-spec load produced no module cache hits: %+v", snap.ModuleCache)
	}
	if snap.Closure.MemoHits == 0 {
		t.Fatalf("no operator memo hits across requests: %+v", snap.Closure)
	}
}
