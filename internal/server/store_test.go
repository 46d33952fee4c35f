package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"cspsat/internal/server"
)

// postRaw drives one endpoint and returns the raw response body, for
// byte-for-byte payload comparisons.
func postRaw(t testing.TB, h http.Handler, path string, body map[string]any) (int, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(raw)))
	return rec.Code, rec.Body.Bytes()
}

// payloadField extracts one response field's raw JSON encoding, the part
// of a response that must be byte-identical across a warm restart
// (elapsed_ms, progress, and cache_hit legitimately differ).
func payloadField(t testing.TB, body []byte, field string) string {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	raw, ok := m[field]
	if !ok {
		t.Fatalf("response has no %q field: %s", field, body)
	}
	return string(raw)
}

// TestReadyz checks the readiness lifecycle: storeless servers are born
// ready; store-backed servers report "starting" until WarmBoot finishes;
// draining flips any server to not-ready while /healthz stays live.
func TestReadyz(t *testing.T) {
	t.Run("storeless", func(t *testing.T) {
		srv := server.New(server.Config{})
		code, out := get(t, srv.Handler(), "/readyz")
		if code != http.StatusOK || out["status"] != "ready" {
			t.Fatalf("code=%d body=%v", code, out)
		}
	})

	t.Run("store-backed", func(t *testing.T) {
		srv := server.New(server.Config{StoreDir: t.TempDir(), Logf: t.Logf})
		code, out := get(t, srv.Handler(), "/readyz")
		if code != http.StatusServiceUnavailable || out["status"] != "starting" {
			t.Fatalf("before warm boot: code=%d body=%v", code, out)
		}
		// Liveness is independent of readiness.
		if code, _ := get(t, srv.Handler(), "/healthz"); code != http.StatusOK {
			t.Fatalf("healthz not live during warm boot: %d", code)
		}
		srv.WarmBoot(context.Background())
		if code, out := get(t, srv.Handler(), "/readyz"); code != http.StatusOK || out["status"] != "ready" {
			t.Fatalf("after warm boot: code=%d body=%v", code, out)
		}
	})

	t.Run("draining", func(t *testing.T) {
		srv := server.New(server.Config{})
		srv.BeginDrain()
		code, out := get(t, srv.Handler(), "/readyz")
		if code != http.StatusServiceUnavailable || out["status"] != "draining" {
			t.Fatalf("code=%d body=%v", code, out)
		}
	})
}

// TestStoreWarmRestart simulates the operational restart: serve requests
// against a store-backed server, build a second server over the same
// directory, warm boot it, and demand (a) the store reports hits, (b) the
// replayed responses' payloads are byte-identical, and (c) /metrics
// surfaces the store counters.
func TestStoreWarmRestart(t *testing.T) {
	dir := t.TempDir()
	copier := readSpec(t, "copier.csp")
	protocol := readSpec(t, "protocol.csp")

	requests := []struct {
		path  string
		field string
		body  map[string]any
	}{
		{"/v1/traces", "traces", map[string]any{"source": copier, "process": "copier", "depth": 5}},
		{"/v1/check", "asserts", map[string]any{"source": copier, "depth": 5}},
		{"/v1/check", "asserts", map[string]any{"source": protocol, "depth": 5}},
		{"/v1/prove", "proofs", map[string]any{"source": copier}},
	}

	srv1 := server.New(server.Config{StoreDir: dir, Logf: t.Logf})
	srv1.WarmBoot(context.Background())
	cold := make([]string, len(requests))
	for i, rq := range requests {
		code, body := postRaw(t, srv1.Handler(), rq.path, rq.body)
		if code != http.StatusOK {
			t.Fatalf("cold %s: code=%d body=%s", rq.path, code, body)
		}
		cold[i] = payloadField(t, body, rq.field)
	}

	srv2 := server.New(server.Config{StoreDir: dir, Logf: t.Logf})
	loaded, skipped := srv2.WarmBoot(context.Background())
	if loaded == 0 || skipped != 0 {
		t.Fatalf("warm boot loaded=%d skipped=%d", loaded, skipped)
	}
	for i, rq := range requests {
		code, body := postRaw(t, srv2.Handler(), rq.path, rq.body)
		if code != http.StatusOK {
			t.Fatalf("warm %s: code=%d body=%s", rq.path, code, body)
		}
		if got := payloadField(t, body, rq.field); got != cold[i] {
			t.Fatalf("warm %s payload differs:\ncold %s\nwarm %s", rq.path, cold[i], got)
		}
		// The warm responses come from the rehydrated module cache.
		if hit := payloadField(t, body, "cache_hit"); hit != "true" {
			t.Fatalf("warm %s: cache_hit=%s", rq.path, hit)
		}
	}

	st := srv2.Cache().Stats()
	if st.StoreHits == 0 {
		t.Fatalf("warm server reports no store hits: %+v", st)
	}
	code, out := get(t, srv2.Handler(), "/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	mc, ok := out["module_cache"].(map[string]any)
	if !ok {
		t.Fatalf("metrics missing module_cache: %v", out)
	}
	for _, field := range []string{"store_hits", "store_misses", "store_corrupt", "store_puts", "store_bytes_read", "store_bytes_written"} {
		if _, ok := mc[field]; !ok {
			t.Fatalf("metrics module_cache missing %s: %v", field, mc)
		}
	}
	if mc["store_hits"].(float64) == 0 {
		t.Fatalf("metrics store_hits is zero: %v", mc)
	}
	// The warm responses above were served off frozen arenas without a
	// thaw, so the frozen tier reports mapped arenas and read hits.
	// (Counters are process-global; >0 is the strongest safe assertion.)
	fz, ok := out["frozen"].(map[string]any)
	if !ok {
		t.Fatalf("metrics missing frozen: %v", out)
	}
	for _, field := range []string{"arenas_opened", "arena_bytes", "hits"} {
		if v, ok := fz[field].(float64); !ok || v == 0 {
			t.Fatalf("metrics frozen %s missing or zero: %v", field, fz)
		}
	}
}

// TestStoreCorruptArtifactServes flips a byte in a stored artifact and
// checks the server recomputes: the request succeeds, the verdicts match,
// the file is quarantined, and store_corrupt is counted.
func TestStoreCorruptArtifactServes(t *testing.T) {
	dir := t.TempDir()
	copier := readSpec(t, "copier.csp")
	body := map[string]any{"source": copier, "depth": 5}

	srv1 := server.New(server.Config{StoreDir: dir, Logf: t.Logf})
	srv1.WarmBoot(context.Background())
	code, cold := postRaw(t, srv1.Handler(), "/v1/check", body)
	if code != http.StatusOK {
		t.Fatalf("cold check: %d", code)
	}

	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("store dir: %v entries, err=%v", len(entries), err)
	}
	path := filepath.Join(dir, entries[0].Name())
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/3] ^= 0x10
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	srv2 := server.New(server.Config{StoreDir: dir, Logf: t.Logf})
	loaded, skipped := srv2.WarmBoot(context.Background())
	if loaded != 0 || skipped != 1 {
		t.Fatalf("warm boot over corrupt store: loaded=%d skipped=%d", loaded, skipped)
	}
	code, warm := postRaw(t, srv2.Handler(), "/v1/check", body)
	if code != http.StatusOK {
		t.Fatalf("check after corruption: code=%d body=%s", code, warm)
	}
	if payloadField(t, warm, "asserts") != payloadField(t, cold, "asserts") {
		t.Fatalf("recomputed verdicts differ from clean compute")
	}
	if st := srv2.Cache().Stats(); st.StoreCorrupt == 0 {
		t.Fatalf("corruption not counted: %+v", st)
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("corrupt artifact not quarantined: %v", err)
	}
}
