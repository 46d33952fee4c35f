// The serving-path half of the cancellation guarantees: cspserved aborts
// engine runs for reasons the CLI never sees (client disconnects, request
// budgets, forced drains), all mid-exploration, all against the shared
// global intern tables. These tests drive real HTTP handlers through those
// aborts and then assert — by canonical pointer identity, like the rest of
// this package — that the tables still produce the exact baseline nodes.
// Run with -race; CI does.
package partests

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"cspsat/internal/server"
	"cspsat/pkg/csp"
)

// postJSON fires one request at the handler under ctx and returns the
// status code; the body is discarded (these tests care about intern-table
// state, not payloads).
func postJSON(t testing.TB, h http.Handler, ctx context.Context, path, body string) int {
	t.Helper()
	req := httptest.NewRequest("POST", path, bytes.NewReader([]byte(body)))
	if ctx != nil {
		req = req.WithContext(ctx)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code
}

// TestServerDisconnectShardConsistency hammers a server with requests whose
// clients hang up mid-exploration, concurrently, and checks that (a) every
// abort is reported as 499, never as a partial result, and (b) the intern
// tables the aborted explorations wrote remain canonical: re-running a
// completed baseline yields the same pointer as before the storm.
func TestServerDisconnectShardConsistency(t *testing.T) {
	mod := loadSpec(t, "multiplier.csp")
	p, err := mod.Proc("multiplier")
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := mod.Traces(context.Background(), p, csp.EngineOptions{Depth: 5})
	if err != nil {
		t.Fatal(err)
	}

	srv := server.New(server.Config{MaxInflight: 8})
	h := srv.Handler()
	raw, err := os.ReadFile(filepath.Join("..", "..", "specs", "multiplier.csp"))
	if err != nil {
		t.Fatal(err)
	}
	spec := string(raw)
	body := jsonBody(t, map[string]any{
		"source": spec, "process": "multiplier", "depth": 12, "nat": 2,
	})

	// Depth 12 runs for seconds; every one of these clients disconnects
	// tens of milliseconds in, so each abort lands mid-exploration while
	// the other requests are still writing the same tables.
	const clients = 6
	var wg sync.WaitGroup
	codes := make([]int, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ctx, cancel := context.WithCancel(context.Background())
			timer := time.AfterFunc(time.Duration(20+10*c)*time.Millisecond, cancel)
			defer timer.Stop()
			defer cancel()
			codes[c] = postJSON(t, h, ctx, "/v1/traces", body)
		}(c)
	}
	wg.Wait()
	for c, code := range codes {
		if code != server.StatusClientClosedRequest {
			t.Errorf("client %d: code=%d, want %d", c, code, server.StatusClientClosedRequest)
		}
	}

	// The aborted runs wrote the same tables the baseline lives in; the
	// canonical node must be bit-for-bit the one from before the storm.
	after, err := mod.Traces(context.Background(), p, csp.EngineOptions{Depth: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !baseline.Set.Same(after.Set) {
		t.Fatal("canonical node changed after aborted server requests — intern table corrupted")
	}

	// And the server itself must still serve: the same spec, completed.
	okBody := jsonBody(t, map[string]any{
		"source": spec, "process": "multiplier", "depth": 4, "nat": 2,
	})
	if code := postJSON(t, h, nil, "/v1/traces", okBody); code != http.StatusOK {
		t.Fatalf("post-storm request: code=%d", code)
	}
}

func jsonBody(t testing.TB, m map[string]any) string {
	t.Helper()
	raw, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}
