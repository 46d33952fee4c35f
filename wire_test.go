// Wire-path benchmarks and allocation guards: the listing encoder and the
// journal digest on bodies cspserved serves on its hot-mix classes.
package cspsat_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"cspsat/internal/journal"
	"cspsat/internal/server"
	"cspsat/pkg/csp"
)

// wireCase is one served request: a listing names its process.
type wireCase struct {
	name, path, spec, process string
	depth                     int
}

var wireCases = []wireCase{
	{"multiplier-listing", "/v1/traces", "multiplier.csp", "multiplier", 4},
	{"philosophers-listing", "/v1/traces", "philosophers.csp", "safe", 6},
	{"buffers-check", "/v1/check", "buffers.csp", "", 6},
}

func readSpecFile(tb testing.TB, name string) string {
	tb.Helper()
	data, err := os.ReadFile(filepath.Join("specs", name))
	if err != nil {
		tb.Fatal(err)
	}
	return string(data)
}

// servedBody returns the body a default-configured server answers c with.
func servedBody(tb testing.TB, c wireCase) []byte {
	tb.Helper()
	req := map[string]any{"source": readSpecFile(tb, c.spec), "depth": c.depth}
	if c.process != "" {
		req["process"] = c.process
	}
	raw, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	rec := httptest.NewRecorder()
	server.New(server.Config{}).Handler().ServeHTTP(rec, httptest.NewRequest("POST", c.path, bytes.NewReader(raw)))
	if rec.Code != http.StatusOK {
		tb.Fatalf("%s: status %d: %s", c.name, rec.Code, rec.Body.Bytes())
	}
	return rec.Body.Bytes()
}

// listing computes the op-engine trace set a listing case serves.
func listing(tb testing.TB, c wireCase) *csp.TraceResult {
	tb.Helper()
	ctx := context.Background()
	mod, err := csp.Load(ctx, readSpecFile(tb, c.spec), csp.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	p, err := mod.Proc(c.process)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := mod.Traces(ctx, p, csp.EngineOptions{Depth: c.depth})
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// TestDigestAllocs bounds the journal digest's allocations on served
// bodies. Decoding into `any` and marshalling again took about 26,100 on
// the multiplier listing and 284 on the buffers check; one pass over the
// bytes takes one, the hex string, however large the body. The digest's
// normalizer comes from a sync.Pool, which the race detector empties at
// random, so under it the digests run but the bound is not enforced.
func TestDigestAllocs(t *testing.T) {
	for _, g := range []struct {
		c     wireCase
		bound float64
	}{
		{wireCases[0], 8},
		{wireCases[2], 8},
	} {
		body := servedBody(t, g.c)
		if got := testing.AllocsPerRun(20, func() { journal.Digest(body) }); got > g.bound && !raceEnabled {
			t.Errorf("%s: Digest of %d bytes allocates %v, want at most %v", g.c.name, len(body), got, g.bound)
		}
	}
}

var digestSink string

func BenchmarkJournalDigest(b *testing.B) {
	for _, c := range wireCases {
		b.Run(c.name, func(b *testing.B) {
			body := servedBody(b, c)
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				digestSink = journal.Digest(body)
			}
		})
	}
}

var listingSink csp.TraceSetJSON

func BenchmarkEncodeListing(b *testing.B) {
	for _, c := range wireCases {
		if c.process == "" {
			continue
		}
		b.Run(c.name, func(b *testing.B) {
			res := listing(b, c)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				listingSink = csp.EncodeTraceSet(res, false, 10000)
			}
		})
	}
}
