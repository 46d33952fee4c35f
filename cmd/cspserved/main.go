// Command cspserved is the long-running HTTP verification service: the
// engines behind cspcheck/csptrace/cspprove, resident, with a module
// cache that amortises the hash-consed intern tables across requests.
//
//	cspserved -addr 127.0.0.1:8777
//	curl -s localhost:8777/v1/check -d '{"source": "p = a!1 -> p\nassert p sat 0 <= #a\n"}'
//
// Endpoints: POST /v1/traces, /v1/check, /v1/prove, /v1/batch; GET
// /metrics, /healthz, /readyz; /debug/pprof. See internal/server for the
// wire contract.
//
// With -store DIR the module cache persists compiled modules and their
// results to an on-disk content-addressed artifact store: a restart warm
// boots from DIR instead of recomputing (during which /readyz answers 503
// "starting" while /healthz stays live), and corrupt or stale artifacts
// are quarantined, logged, and recomputed — never fatal. cmd/cspstore
// operates the same directory offline.
//
// The uniform flags keep their CLI meaning where one exists: -timeout is
// the per-request engine budget (not the process lifetime), -workers the
// default per-request worker count for asserts, proof obligations and
// batch items, -nat the default NAT width,
// -stats a closure-cache report on exit. SIGINT/SIGTERM starts a graceful
// drain: new requests are refused with 503 while in-flight checks finish,
// up to -drain, after which the engines are hard-canceled (the intern
// shards stay valid under cancellation, so a forced abort loses only the
// aborted requests' work).
//
// With -journal DIR every deterministic /v1/* request is appended to a
// checksummed journal file (one per run) together with a digest of the
// response; `cspscen replay JOURNAL -addr URL` re-issues the recorded
// workload against a restarted server and verifies the responses
// reproduce byte-identically (modulo the documented timing fields — see
// internal/journal). GET /v1/version reports the wire schema, store codec
// version, and build info that stamp such journals.
//
// Usage:
//
//	cspserved [-addr HOST:PORT] [-depth N] [-nat W] [-workers N]
//	          [-timeout D] [-max-inflight N] [-drain D] [-cache N]
//	          [-store DIR] [-journal DIR] [-stats]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"cspsat/internal/cli"
	"cspsat/internal/server"
)

func main() {
	app := cli.New("cspserved",
		"cspserved [-addr HOST:PORT] [-depth N] [-nat W] [-workers N] [-timeout D] [-max-inflight N] [-drain D] [-cache N] [-store DIR] [-journal DIR] [-stats]")
	app.NatFlag(3)
	addr := flag.String("addr", "127.0.0.1:8777", "listen address")
	depth := flag.Int("depth", 8, "default trace-length bound for requests that send none")
	maxInflight := flag.Int("max-inflight", 0, "admission limit on concurrently served requests (0 = 2×GOMAXPROCS)")
	drain := flag.Duration("drain", 15*time.Second, "how long a shutdown waits for in-flight requests before hard-canceling them")
	cacheCap := flag.Int("cache", 0, "module cache capacity in specs (0 = default)")
	storeDir := flag.String("store", "", "artifact store directory for persistent warm starts (empty = no persistence)")
	journalDir := flag.String("journal", "", "directory for the append-only request journal (empty = no recording); replay with cspscen replay")
	app.Parse(0)

	reqTimeout := app.Timeout
	if reqTimeout <= 0 {
		reqTimeout = 30 * time.Second
	}
	srv := server.New(server.Config{
		Depth:          *depth,
		NatWidth:       app.Nat,
		Workers:        app.Workers,
		RequestTimeout: reqTimeout,
		MaxInflight:    *maxInflight,
		CacheCapacity:  *cacheCap,
		StoreDir:       *storeDir,
		JournalDir:     *journalDir,
		Logf:           log.Printf,
	})
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	// The lifecycle context carries no deadline of its own — -timeout is
	// per-request here — but keeps the CLI layer's signal wiring: first
	// SIGINT/SIGTERM starts the drain, a second one kills the process.
	ctx, cancel := cli.SignalContext(context.Background(), 0)
	defer cancel()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		app.Fatal(err)
	}
	fmt.Printf("cspserved: listening on http://%s (request budget %v, drain %v)\n",
		ln.Addr(), reqTimeout, *drain)

	// Warm boot in the background: the listener is already accepting (so
	// /healthz answers immediately) but /readyz reports "starting" until
	// every stored artifact has been rehydrated or skipped.
	go srv.WarmBoot(ctx)

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		app.Fail(err)
	case <-ctx.Done():
	}

	fmt.Fprintf(os.Stderr, "cspserved: %v; draining in-flight requests (up to %v)\n",
		context.Cause(ctx), *drain)
	srv.BeginDrain()
	sctx, stop := context.WithTimeout(context.Background(), *drain)
	defer stop()
	if err := httpSrv.Shutdown(sctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "cspserved: drain deadline exceeded; hard-canceling in-flight requests")
		srv.Abort()
		_ = httpSrv.Close()
	}
	if err := srv.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "cspserved: closing journal: %v\n", err)
	}
	fmt.Fprintln(os.Stderr, "cspserved: drained, exiting")
	app.Finish()
}
