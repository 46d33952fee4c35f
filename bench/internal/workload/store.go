package workload

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"

	"cspsat/internal/journal"
	"cspsat/internal/server"
)

// store-spill sizing: the corpus's cached results are four times the
// module cache's default 128 entries, and one request in eight is a module
// the store has never seen.
const (
	spillModules = 512
	spillDepth   = 6
	spillFreshIn = 8
	// spillChecked bounds how many never-seen requests are re-checked on a
	// reference server after the run.
	spillChecked = 128
)

// buildStoreSpill generates the corpus, runs the fixture pass — every
// corpus request through a store-backed server, which compiles each module
// and persists its artifact with all three results — and then the traffic:
// 7 of 8 requests uniform over the cached results, 1 of 8 a never-seen
// module's op trace listing.
func buildStoreSpill(ctx context.Context, fx *Fixture, perClient int, dir string) error {
	if dir == "" {
		return fmt.Errorf("workload: store-spill needs a store directory")
	}
	fx.StoreDir = dir
	g := newModuleSource(fx.Seed)
	var corpus []Request
	for i := 0; i < spillModules; i++ {
		src, err := g.next()
		if err != nil {
			return err
		}
		s := session(src, spillDepth)
		corpus = append(corpus, s.Op, s.Denote, s.Refine)
	}

	srv := server.New(server.Config{StoreDir: dir})
	srv.WarmBoot(ctx)
	fx.Expected = make(map[string]string, len(corpus))
	for _, rq := range corpus {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest("POST", rq.Path, bytes.NewReader(rq.Body)))
		if rec.Code != rq.Status {
			return fmt.Errorf("workload: store-spill fixture %s answered %d: %s", rq.Path, rec.Code, rec.Body.Bytes())
		}
		fx.Expected[rq.Key] = journal.Digest(rec.Body.Bytes())
	}
	if err := srv.Close(); err != nil {
		return err
	}

	r := mix(fx.Seed, streamTraffic)
	fresh := 0
	for i := 0; i < perClient; i++ {
		for c := range fx.Clients {
			if r.Intn(spillFreshIn) > 0 {
				fx.Clients[c] = append(fx.Clients[c], corpus[r.Intn(len(corpus))])
				continue
			}
			src, err := g.next()
			if err != nil {
				return err
			}
			rq := session(src, spillDepth).Op
			fx.Clients[c] = append(fx.Clients[c], rq)
			if fresh%(perClient/spillFreshIn/spillChecked+1) == 0 {
				fx.Reference = append(fx.Reference, rq)
			}
			fresh++
		}
	}
	return nil
}
