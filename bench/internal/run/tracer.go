package run

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"cspsat/bench/internal/workload"
	"cspsat/pkg/csp"
)

// spanName names a span: a request's root span, or a layer.
type spanName uint8

const (
	spanRequest spanName = iota
	spanNet
	spanDecode
	spanCache
	spanParse
	spanLookup
	spanStore
	spanTraces
	spanCheck
	spanRefine
	spanProve
	spanEncode
	spanJournal
)

var spanNames = [...]string{
	spanRequest: "request",
	spanNet:     "net",
	spanDecode:  "decode",
	spanCache:   "cache",
	spanParse:   "parse",
	spanLookup:  "results.lookup",
	spanStore:   "results.store",
	spanTraces:  "engine.traces",
	spanCheck:   "engine.check",
	spanRefine:  "engine.refine",
	spanProve:   "engine.prove",
	spanEncode:  "encode",
	spanJournal: "journal",
}

func (n spanName) String() string { return spanNames[n] }

func (n spanName) MarshalText() ([]byte, error) { return []byte(n.String()), nil }

// Span is one timed call into a layer during the traced pass. Spans of one
// request share Req. A layer span's parent is its request's root span
// ("request"), except the journal's, whose parent is the net span it runs
// inside; a span's self time is its duration less its children's. A Span
// holds no pointers, so the tracer can keep them outside the Go heap.
type Span struct {
	Req    int      `json:"req"`
	ID     int      `json:"id"`
	Parent int      `json:"parent"`
	Name   spanName `json:"name"`
	Start  int64    `json:"start_ns"`
	End    int64    `json:"end_ns"`
	// ChildNS is the time spent in child spans.
	ChildNS int64 `json:"child_ns,omitempty"`
	// Allocs is the heap objects allocated inside the call (allocation
	// passes only).
	Allocs uint64 `json:"allocs,omitempty"`
	// Hit marks cache and results-cache lookups that hit.
	Hit bool `json:"hit,omitempty"`
}

// selfUS is the span's self time in microseconds.
func (s *Span) selfUS() float64 {
	return float64(s.End-s.Start-s.ChildNS) / float64(time.Microsecond)
}

// spansPerRequest bounds the spans one request records (at most ten: the
// root, decode, cache, lookup, parse or engine, store, two encodes, net
// and journal).
const spansPerRequest = 12

// offHeap returns an empty span buffer for n requests in memory mapped
// outside the Go heap, and the function that unmaps it. Tracing then
// leaves the heap, and so the collector's pace, as the untraced pass has
// them. Holding a buffer that size on the heap cut a hot-mix pass's
// collector share of CPU from 17% to 10%, so the traced pass ran the
// allocation-heavy large listings faster than the server did.
func offHeap(n int) ([]Span, func() error, error) {
	size := spansPerRequest * n * int(unsafe.Sizeof(Span{}))
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, nil, err
	}
	spans := unsafe.Slice((*Span)(unsafe.Pointer(&mem[0])), spansPerRequest*n)
	return spans[:0], func() error { return syscall.Munmap(mem) }, nil
}

// tracer records spans in memory. A nil tracer records nothing, so the
// mirror runs untraced during the setup pass. The echo endpoint records
// the journal span from the server's goroutine, hence the lock.
type tracer struct {
	mu     sync.Mutex
	spans  []Span
	base   time.Time
	req    int
	root   int
	cache  *csp.ModuleCache
	misses uint64 // cache misses before the current request
	// exact makes every span count its heap allocations instead of
	// timing faithfully; see start.
	exact bool
	ms    runtime.MemStats
}

// spanStart is an open span's start time, allocation count, and the
// number of spans recorded before it opened.
type spanStart struct {
	t       time.Time
	mallocs uint64
	n       int
}

// start opens a span. Allocation counts come from runtime.ReadMemStats,
// which stops the world and flushes the per-P allocation caches so it
// counts exactly — and sends the allocations after it down the slow path,
// which inflated small requests' layer times by half when tried. So a
// pass either counts allocations (exact) or times layers, never both.
func (t *tracer) start() spanStart {
	if t == nil {
		return spanStart{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var mallocs uint64
	if t.exact {
		runtime.ReadMemStats(&t.ms)
		mallocs = t.ms.Mallocs
	}
	return spanStart{t: time.Now(), mallocs: mallocs, n: len(t.spans)}
}

func (t *tracer) close(s spanStart, name spanName, hit bool) {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	var allocs uint64
	if t.exact {
		runtime.ReadMemStats(&t.ms)
		allocs = t.ms.Mallocs - s.mallocs
	}
	// Spans recorded since s opened are its children.
	id := len(t.spans)
	var child int64
	for i := s.n; i < id; i++ {
		t.spans[i].Parent = id
		child += t.spans[i].End - t.spans[i].Start
	}
	t.spans = append(t.spans, Span{
		Req:     t.req,
		ID:      id,
		Parent:  t.root,
		Name:    name,
		Start:   int64(s.t.Sub(t.base)),
		End:     int64(now.Sub(t.base)),
		Allocs:  allocs,
		Hit:     hit,
		ChildNS: child,
	})
}

// end closes a span.
func (t *tracer) end(s spanStart, name spanName) {
	if t != nil {
		t.close(s, name, false)
	}
}

// endLookup closes a results-cache lookup span.
func (t *tracer) endLookup(s spanStart, hit bool) {
	if t != nil {
		t.close(s, spanLookup, hit)
	}
}

// endCache closes a module-cache span; it hit when the cache's miss
// counter did not move during the request.
func (t *tracer) endCache(s spanStart) {
	if t != nil {
		t.close(s, spanCache, t.cache.Stats().Misses == t.misses)
	}
}

// begin opens request i's root span.
func (t *tracer) begin(i int) spanStart {
	t.req = i
	t.root = len(t.spans)
	t.spans = append(t.spans, Span{Req: i, ID: t.root, Parent: -1, Name: spanRequest})
	t.misses = t.cache.Stats().Misses
	return t.start()
}

// finish closes request i's root span.
func (t *tracer) finish(s spanStart) {
	now := time.Now()
	root := &t.spans[t.root]
	root.Start = int64(s.t.Sub(t.base))
	root.End = int64(now.Sub(t.base))
}

// write stores the spans of a pass over stream as JSON lines; root spans
// also carry their request's path and class.
func (t *tracer) write(path string, stream []workload.Request) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		var line any = &t.spans[i]
		if s := t.spans[i]; s.Name == spanRequest {
			line = struct {
				Span
				Path  string `json:"path"`
				Class string `json:"class,omitempty"`
			}{s, stream[s.Req].Path, stream[s.Req].Class}
		}
		if err := enc.Encode(line); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
