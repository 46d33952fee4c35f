package run

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cspsat/bench/internal/stats"
	"cspsat/bench/internal/workload"
	"cspsat/internal/closure/frozen"
	"cspsat/internal/journal"
	"cspsat/pkg/csp"
)

// PerLayer lists the per-layer metric names and units, in report order.
// Every *_us value is self time summed over the traced pass divided by
// its request count, so they add up; every *.allocs value is heap objects
// allocated inside that layer's calls per request.
var PerLayer = []Metric{
	{"net.self_us", "us"},
	{"server.unattributed_us", "us"},
	{"decode.self_us", "us"},
	{"decode.allocs", "objects"},
	{"cache.hit_ratio", "ratio"},
	{"cache.hit_us", "us"},
	{"cache.miss_us", "us"},
	{"cache.allocs", "objects"},
	{"store.reads_per_req", "count"},
	{"store.bytes_read_per_req", "bytes"},
	{"store.puts_per_req", "count"},
	{"store.bytes_written_per_req", "bytes"},
	{"frozen.arenas_opened_per_req", "count"},
	{"frozen.thaws_per_req", "count"},
	{"parse.lazy_us", "us"},
	{"results.hit_ratio", "ratio"},
	{"results.lookup_us", "us"},
	{"results.store_us", "us"},
	{"engine.traces_us", "us"},
	{"engine.check_us", "us"},
	{"engine.refine_us", "us"},
	{"engine.prove_us", "us"},
	{"engine.allocs", "objects"},
	{"closure.intern_misses_per_req", "count"},
	{"closure.memo_hit_ratio", "ratio"},
	{"encode.self_us", "us"},
	{"encode.resp_bytes", "bytes"},
	{"encode.allocs", "objects"},
	{"journal.append_us", "us"},
	{"journal.allocs", "objects"},
	{"runtime.gc_cpu_share", "ratio"},
	{"trace.coverage", "ratio"},
}

// Traced is the traced single-client pass's result.
type Traced struct {
	Requests int `json:"requests"`
	// Layers holds the per-layer metrics the traced process measures
	// itself (all but the three that need the untraced pass).
	Layers map[string]float64 `json:"layers"`
	// SelfUS is the summed self time of every named layer per request.
	SelfUS float64 `json:"self_us"`
	// ClassUS maps each fixed request class to its median self time per
	// span name.
	ClassUS map[string]map[string]float64 `json:"class_us,omitempty"`
	Outcome
}

// exchange is what the echo endpoint sends back, and the journaling to do
// after sending it.
type exchange struct {
	body   []byte
	record func()
}

// TracedPass builds the fixture, boots the mirror over its own module
// cache (and store, for store-spill) and journal, runs the setup pass
// untraced, then sends client 0's stream through the mirror with a span
// around every layer call, timing the network by echoing the same request
// and response bytes through a loopback handler, which journals the
// exchange as it sends the response. Spans are written to
// traceOut at the end. With exactAllocs the spans count heap allocations
// and their times are not used; see tracer.start.
func TracedPass(ctx context.Context, cfg Config, traceOut string, exactAllocs bool) (*Traced, error) {
	dir, cleanup, err := tempDir("cspbench-")
	if err != nil {
		return nil, err
	}
	defer cleanup()
	fx, _, err := fixture(ctx, cfg, dir)
	if err != nil {
		return nil, err
	}
	res := &Traced{}

	m := &mirror{cache: csp.NewModuleCache(0)}
	if fx.StoreDir != "" {
		st, err := csp.OpenStore(fx.StoreDir)
		if err != nil {
			return nil, err
		}
		m.cache.SetStore(st, nil)
		m.cache.WarmBoot(ctx)
	}
	m.journal, err = journal.Create(filepath.Join(dir, "mirror.cspj"), journal.Meta{
		WireSchema: csp.WireSchema, Go: runtime.Version(), Start: time.Now().UnixNano(),
	})
	if err != nil {
		return nil, err
	}
	defer m.journal.Close()

	// The echo endpoint answers with the bytes the mirror just produced,
	// then journals the exchange, as the server's handler does: a body
	// larger than the response buffer is on its way to the client while
	// the journal digests it.
	var echo atomic.Pointer[exchange]
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.ReadAll(r.Body)
		x := echo.Load()
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(x.body)
		if x.record != nil {
			x.record()
		}
	}))
	defer ts.Close()
	echoClient := newClient(ts.URL)
	defer echoClient.close()

	// Setup pass, untraced, from as many goroutines as the closed loop
	// has clients.
	streams := splitRoundRobin(fx.Setup, workload.Clients)
	statuses := make([][]int, len(streams))
	var wg sync.WaitGroup
	for c, stream := range streams {
		statuses[c] = make([]int, len(stream))
		wg.Add(1)
		go func(stream []workload.Request, out []int) {
			defer wg.Done()
			for i, rq := range stream {
				out[i], _ = m.serve(rq.Path, rq.Body)
			}
		}(stream, statuses[c])
	}
	wg.Wait()
	for c, stream := range streams {
		for i, rq := range stream {
			if statuses[c][i] != rq.Status {
				res.problem("setup %s %s: status %d, want %d", rq.Path, rq.Class, statuses[c][i], rq.Status)
			}
		}
	}
	echo.Store(&exchange{})
	if _, _, err := echoClient.do(workload.Request{Path: "/", Body: nil}); err != nil {
		return nil, err
	}

	stream := fx.Clients[0]
	spans, unmap, err := offHeap(len(stream))
	if err != nil {
		return nil, err
	}
	defer unmap()
	t := &tracer{base: time.Now(), cache: m.cache, spans: spans, exact: exactAllocs}
	m.t = t
	obs := make([]sample, len(stream))
	answers := map[string]workload.Answer{}
	cache0, frozen0, closure0 := m.cache.Stats(), frozen.Snapshot(), csp.Stats()
	var respBytes int
	inTurns(len(stream), cfg.Turn, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			rq := stream[i]
			root := t.begin(i)
			status, body := m.respond(rq.Path, rq.Body)
			x := &exchange{body: body, record: func() { m.record(rq.Path, status, rq.Body, body) }}
			if exactAllocs {
				// Counted inside the echo, the journal's allocations would
				// include the client's, made while it reads the body.
				x.record()
				x.record = nil
			}
			echo.Store(x)
			sp := t.start()
			_, _, err := echoClient.do(rq)
			t.end(sp, spanNet) // the echo's journal span is its child
			t.finish(root)
			obs[i] = sample{status: status, err: err}
			respBytes += len(body)
			a := workload.Answer{Status: status, Digest: journal.Digest(body)}
			if first, ok := answers[rq.Key]; ok && first != a {
				res.problem("%s %.12s: answer %d/%.12s differs from first answer %d/%.12s", rq.Path, rq.Key, a.Status, a.Digest, first.Status, first.Digest)
			} else if !ok {
				answers[rq.Key] = a
			}
		}
	})
	cache1, frozen1, closure1 := m.cache.Stats(), frozen.Snapshot(), csp.Stats()
	m.t = nil
	if m.err != nil {
		return nil, m.err
	}
	if err := t.write(traceOut, stream); err != nil {
		return nil, err
	}

	n := float64(len(stream))
	res.Requests = len(stream)
	res.Layers = layerMetrics(t.spans, len(stream))
	res.Layers["encode.resp_bytes"] = float64(respBytes) / n
	res.Layers["store.reads_per_req"] = float64(cache1.StoreHits-cache0.StoreHits) / n
	res.Layers["store.bytes_read_per_req"] = float64(cache1.StoreBytesRead-cache0.StoreBytesRead) / n
	res.Layers["store.puts_per_req"] = float64(cache1.StorePuts-cache0.StorePuts) / n
	res.Layers["store.bytes_written_per_req"] = float64(cache1.StoreBytesWritten-cache0.StoreBytesWritten) / n
	res.Layers["frozen.arenas_opened_per_req"] = float64(frozen1.ArenasOpened-frozen0.ArenasOpened) / n
	res.Layers["frozen.thaws_per_req"] = float64(frozen1.Thaws-frozen0.Thaws) / n
	res.Layers["closure.intern_misses_per_req"] = float64(closure1.InternMisses-closure0.InternMisses) / n
	res.Layers["closure.memo_hit_ratio"] = ratio(closure1.MemoHits-closure0.MemoHits, closure1.MemoMisses-closure0.MemoMisses)
	for _, name := range selfLayers {
		res.SelfUS += res.Layers[name]
	}
	res.ClassUS = classLayers(t.spans, stream)
	check(fx, cfg.Golden, [][]workload.Request{stream}, [][]sample{obs}, answers, &res.Outcome)
	return res, nil
}

// selfLayers are the per-layer self times that together account for a
// request.
var selfLayers = []string{
	"net.self_us", "decode.self_us", "cache.hit_us", "cache.miss_us", "parse.lazy_us",
	"results.lookup_us", "results.store_us",
	"engine.traces_us", "engine.check_us", "engine.refine_us", "engine.prove_us",
	"encode.self_us", "journal.append_us",
}

// spanMetric maps a span name to the *_us and *.allocs metrics it feeds.
var spanMetric = map[spanName][2]string{
	spanNet:     {"net.self_us", ""},
	spanDecode:  {"decode.self_us", "decode.allocs"},
	spanParse:   {"parse.lazy_us", ""},
	spanLookup:  {"results.lookup_us", ""},
	spanStore:   {"results.store_us", ""},
	spanTraces:  {"engine.traces_us", "engine.allocs"},
	spanCheck:   {"engine.check_us", "engine.allocs"},
	spanRefine:  {"engine.refine_us", "engine.allocs"},
	spanProve:   {"engine.prove_us", "engine.allocs"},
	spanEncode:  {"encode.self_us", "encode.allocs"},
	spanJournal: {"journal.append_us", "journal.allocs"},
}

// layerMetrics computes the span-derived per-layer metrics of a pass over
// n requests: self time and allocations summed over the pass and divided
// by n, and hit ratios.
func layerMetrics(spans []Span, n int) map[string]float64 {
	out := map[string]float64{}
	for _, m := range PerLayer {
		out[m.Name] = 0
	}
	var cacheHits, cacheCalls, lookupHits uint64
	for _, s := range spans {
		var names [2]string
		switch s.Name {
		case spanRequest:
			continue
		case spanCache:
			cacheCalls++
			names = [2]string{"cache.miss_us", "cache.allocs"}
			if s.Hit {
				cacheHits++
				names[0] = "cache.hit_us"
			}
		default:
			if s.Name == spanLookup && s.Hit {
				lookupHits++
			}
			names = spanMetric[s.Name]
		}
		out[names[0]] += s.selfUS()
		if names[1] != "" {
			out[names[1]] += float64(s.Allocs)
		}
	}
	for name := range out {
		out[name] /= float64(n)
	}
	out["cache.hit_ratio"] = ratio(cacheHits, cacheCalls-cacheHits)
	// The share of requests answered from the results cache: failures-
	// model checks, which never consult it, count as misses.
	out["results.hit_ratio"] = float64(lookupHits) / float64(n)
	return out
}

// classMedians returns each fixed request class's median of values.
func classMedians(values []float64, stream []workload.Request) map[string]float64 {
	byClass := map[string][]float64{}
	for i, rq := range stream {
		if rq.Class != "" {
			byClass[rq.Class] = append(byClass[rq.Class], values[i])
		}
	}
	out := map[string]float64{}
	for c, vs := range byClass {
		out[c] = stats.Median(vs)
	}
	return out
}

// classLayers returns, per fixed request class, the median self time of
// each span name over the class's requests.
func classLayers(spans []Span, stream []workload.Request) map[string]map[string]float64 {
	per := map[spanName][]float64{}
	for _, s := range spans {
		if s.Name == spanRequest || stream[s.Req].Class == "" {
			continue
		}
		if per[s.Name] == nil {
			per[s.Name] = make([]float64, len(stream))
		}
		per[s.Name][s.Req] += s.selfUS()
	}
	out := map[string]map[string]float64{}
	for name, values := range per {
		for c, med := range classMedians(values, stream) {
			if out[c] == nil {
				out[c] = map[string]float64{}
			}
			out[c][name.String()] = med
		}
	}
	return out
}

// Attribution compares each fixed request class's untraced median latency
// with its traced layer times.
func Attribution(s *Single, t *Traced) map[string]stats.ClassRow {
	if len(s.ClassUS) == 0 {
		return nil
	}
	out := map[string]stats.ClassRow{}
	for c, us := range s.ClassUS {
		row := stats.ClassRow{UntracedUS: us, LayersUS: t.ClassUS[c]}
		for _, v := range row.LayersUS {
			row.Attributed += v
		}
		if us > 0 {
			row.Attributed /= us
		}
		out[c] = row
	}
	return out
}

// ratio returns hits/(hits+misses), or 0 when there were none.
func ratio(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// Combine assembles the per-layer metrics: times, counts and ratios from
// the timing pass, allocations from the allocation pass, and the three
// that need the untraced single-client pass.
func Combine(s *Single, t, allocs *Traced) map[string]float64 {
	out := map[string]float64{}
	for k, v := range t.Layers {
		if strings.HasSuffix(k, ".allocs") {
			v = allocs.Layers[k]
		}
		out[k] = v
	}
	out["server.unattributed_us"] = s.MeanUS - t.SelfUS
	out["trace.coverage"] = t.SelfUS / s.MeanUS
	out["runtime.gc_cpu_share"] = s.GCShare
	return out
}
