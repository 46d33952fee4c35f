// Package workload builds the benchmark's request streams. Every input is
// a deterministic function of the workload name and the seed; the server
// under test only ever sees the request bytes built here.
//
// The four workloads each put most of the work on a different layer of
// cspserved (see bench/README.md for the layer → metric table):
//
//   - hot-mix: 20 request classes over the seven specs, all answered from
//     the module and results caches after the setup pass, so the cost is
//     HTTP, JSON, encoding and the journal.
//   - fresh-specs: never-seen generated modules, three requests per
//     module, so parsing, the op explorer, the denotational fixpoint and
//     closure interning do the work.
//   - failures-check: failures-model checks, which bypass the results
//     cache by design, so internal/failures does nearly all the work.
//   - store-spill: a store-backed server whose cached results are four
//     times the memory cache, so reads come off mmapped artifacts.
package workload

import (
	"context"
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"

	"cspsat/internal/gen"
	"cspsat/internal/syntax"
	"cspsat/pkg/csp"
)

// The seven paper specs, frozen with the benchmark so that editing specs/
// cannot silently change the benchmark's inputs or invalidate its goldens.
//
//go:embed specs/*.csp
var specFS embed.FS

// Clients is the closed loop's client count: one keep-alive connection
// each, next request sent only after the previous body is read.
const Clients = 2

// Names lists the workloads in report order.
var Names = []string{"hot-mix", "fresh-specs", "failures-check", "store-spill"}

// Shape sizes a workload's timed phase.
type Shape struct {
	// PerSecond is how many timed requests, over both clients, one second
	// of the run's measuring budget bought at the nominal host speed (see
	// run.gauge) when the benchmark was sized. The request count is fixed
	// from it, so every commit does identical work.
	PerSecond int
	// Cycle is the length of the workload's repeating unit (classes, or
	// requests per session); each client's stream is a whole number of
	// cycles so both clients carry the same mix.
	Cycle int
	// Setups is how many set-ups a run times, each in a fresh process: one
	// per repetition, and set-up-only passes for the rest. setup_s is their
	// median. A set-up of a tenth of a second varies by a quarter from one
	// process to the next, so fresh-specs' and failures-check's are timed
	// more often. hot-mix's, nearly all cold proofs, repeats well from the
	// repetitions alone, and store-spill's warm boot is already the median
	// of several boots in each process, where a set-up-only pass would
	// build, and later delete, a whole store.
	Setups int
}

// Reps is how many repetitions, each in a fresh process, a run makes; the
// run reports each end-to-end metric's median over them.
const Reps = 3

// MinPerClient keeps at least 1,000 latency samples over a run's
// repetitions, whose samples the percentiles pool, so that at least ten
// lie above the 99th percentile.
const MinPerClient = (1000 + Reps*Clients - 1) / (Reps * Clients)

// Shapes holds each workload's sizing.
var Shapes = map[string]Shape{
	"hot-mix":        {PerSecond: 1700, Cycle: 20, Setups: Reps},
	"fresh-specs":    {PerSecond: 11400, Cycle: 3, Setups: 9},
	"failures-check": {PerSecond: 98, Cycle: 7, Setups: 9},
	"store-spill":    {PerSecond: 5500, Cycle: 8, Setups: Reps},
}

// PerClient returns how many requests each client sends in a timed phase
// that measured about seconds when the benchmark was sized, rounded up to
// whole cycles, and at least MinPerClient.
func PerClient(name string, seconds float64) int {
	sh := Shapes[name]
	n := max(int(float64(sh.PerSecond)*seconds)/Clients, MinPerClient)
	return (n + sh.Cycle - 1) / sh.Cycle * sh.Cycle
}

// Request is one HTTP request of a stream.
type Request struct {
	Path string
	Body []byte
	// Kind is the endpoint's verb: traces, check, refine or prove.
	Kind string
	// Class names a fixed request class (hot-mix, failures-check); empty
	// for generated requests.
	Class string
	// Status is the HTTP status a correct server answers with.
	Status int
	// Key identifies the request bytes: hex SHA-256 over path and body.
	Key string
}

// wireRequest is the JSON body sent to /v1/*; the struct fixes the field
// order, so a request's bytes depend only on its content.
type wireRequest struct {
	Source  string `json:"source"`
	Process string `json:"process,omitempty"`
	Engine  string `json:"engine,omitempty"`
	Model   string `json:"model,omitempty"`
	Impl    string `json:"impl,omitempty"`
	Spec    string `json:"spec,omitempty"`
	Depth   int    `json:"depth,omitempty"`
	Nat     int    `json:"nat,omitempty"`
	// MaxTraces caps a listing, as a client wanting a sample of the
	// traces rather than all of them would.
	MaxTraces int `json:"max_traces,omitempty"`
}

func newRequest(kind string, body wireRequest, class string, status int) Request {
	raw, err := json.Marshal(body)
	if err != nil {
		panic(err) // a struct of strings and ints always encodes
	}
	path := "/v1/" + kind
	return Request{Path: path, Body: raw, Kind: kind, Class: class, Status: status, Key: KeyOf(path, raw)}
}

// KeyOf returns the identity of a request: hex SHA-256 over its path and
// body bytes.
func KeyOf(path string, body []byte) string {
	h := sha256.New()
	h.Write([]byte(path))
	h.Write([]byte{0})
	h.Write(body)
	return hex.EncodeToString(h.Sum(nil))
}

// Spec returns the source text of one of the seven frozen specs.
func Spec(name string) string {
	data, err := specFS.ReadFile("specs/" + name + ".csp")
	if err != nil {
		panic(fmt.Sprintf("workload: no frozen spec %q", name))
	}
	return string(data)
}

// Session is one generated module's fresh-specs requests: its op trace
// listing, its denotational trace listing, and main ⊑T weak. The paper's
// consistency theorem makes the two listings equal, and weak = main |~|
// STOP has main's traces, so the refinement holds.
type Session struct {
	Op, Denote, Refine Request
}

// Fixture is everything a run needs before timing starts.
type Fixture struct {
	Workload string
	Seed     int64
	// Setup is the pass over the workload's distinct requests that runs
	// before timing, split round-robin across the clients.
	Setup []Request
	// Clients holds each client's timed stream.
	Clients [Clients][]Request
	// Classes lists the distinct fixed request classes (hot-mix,
	// failures-check), whose answers the goldens pin for every seed.
	Classes []Request
	// Expected maps request keys to answer digests known before the run:
	// store-spill's fixture pass records one for every cached result.
	Expected map[string]string
	// Sessions are fresh-specs sessions re-checked after the run against a
	// reference server and the consistency theorem.
	Sessions []Session
	// Reference are further requests re-computed on a reference server
	// after the run (store-spill's never-seen modules).
	Reference []Request
	// StoreDir is store-spill's artifact directory, built by the fixture
	// pass and warm-booted by the server under test.
	StoreDir string
}

// Options adjust a fixture for the smoke test.
type Options struct {
	// SkipProve drops hot-mix's two /v1/prove classes, whose cold §2.1
	// proof synthesis takes seconds.
	SkipProve bool
	// StoreDir is where store-spill builds its artifacts (required for
	// store-spill).
	StoreDir string
}

// UsesStore reports whether the named workload's fixture builds a store in
// Options.StoreDir.
func UsesStore(name string) bool { return name == "store-spill" }

// Build makes the named workload's fixture for seed with perClient timed
// requests per client.
func Build(ctx context.Context, name string, seed int64, perClient int, opts Options) (*Fixture, error) {
	fx := &Fixture{Workload: name, Seed: seed}
	var err error
	switch name {
	case "hot-mix":
		fx.Classes = hotMixClasses(opts.SkipProve)
		buildRoundRobin(fx, perClient)
	case "failures-check":
		fx.Classes = failuresClasses()
		buildRoundRobin(fx, perClient)
	case "fresh-specs":
		err = buildFreshSpecs(fx, perClient)
	case "store-spill":
		err = buildStoreSpill(ctx, fx, perClient, opts.StoreDir)
	default:
		return nil, fmt.Errorf("workload: unknown workload %q (known: %v)", name, Names)
	}
	if err != nil {
		return nil, err
	}
	return fx, nil
}

// mix derives an independent rand source for one stream of a seed
// (splitmix64 finaliser), so adding a stream never shifts another.
func mix(seed int64, stream uint64) *rand.Rand {
	z := uint64(seed)*0x9e3779b97f4a7c15 + stream*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return rand.New(rand.NewSource(int64(z >> 1)))
}

// Rand streams of a seed.
const (
	streamOffsets = iota
	streamModules
	streamTraffic
)

// buildRoundRobin sends every class once in setup, then gives each client
// rounds in which every class appears once, each round in a seeded
// shuffled order. A fixed order would let the garbage collector's cycle
// lock into phase with the class sequence, so that whether the large
// listings pay for a collection would be settled once per run rather than
// averaged over it.
func buildRoundRobin(fx *Fixture, perClient int) {
	fx.Setup = fx.Classes
	r := mix(fx.Seed, streamOffsets)
	n := len(fx.Classes)
	for c := range fx.Clients {
		stream := make([]Request, 0, perClient)
		for len(stream) < perClient {
			for _, k := range r.Perm(n) {
				stream = append(stream, fx.Classes[k])
			}
		}
		fx.Clients[c] = stream[:perClient]
	}
}

func hotMixClasses(skipProve bool) []Request {
	var out []Request
	for _, s := range []string{"copier", "protocol", "multiplier", "buffers", "philosophers", "tokenring", "nondet"} {
		out = append(out, newRequest("check", wireRequest{Source: Spec(s), Depth: 6}, "check/"+s, http.StatusOK))
	}
	// The traces set of scripts/serve_smoke.sh; multiplier shallow, its
	// data-carrying states make deep listings slow by design.
	for _, t := range []struct {
		spec, proc string
		depth      int
	}{
		{"copier", "copier", 6}, {"protocol", "protocol", 6}, {"multiplier", "multiplier", 4},
		{"buffers", "buf1", 6}, {"philosophers", "safe", 6}, {"tokenring", "sys", 6},
	} {
		out = append(out, newRequest("traces", wireRequest{Source: Spec(t.spec), Process: t.proc, Depth: t.depth}, "traces/"+t.spec, http.StatusOK))
	}
	for _, f := range []struct {
		class, spec, impl, sp, model string
	}{
		{"refine/nondet-traces", "nondet", "flaky", "vend", ""},
		{"refine/nondet-failures", "nondet", "flaky", "vend", "failures"},
		{"refine/buffers", "buffers", "buf1", "buf2", ""},
	} {
		out = append(out, newRequest("refine", wireRequest{Source: Spec(f.spec), Impl: f.impl, Spec: f.sp, Model: f.model, Depth: 6}, f.class, http.StatusOK))
	}
	if !skipProve {
		for _, s := range []string{"copier", "protocol"} {
			out = append(out, newRequest("prove", wireRequest{Source: Spec(s)}, "prove/"+s, http.StatusOK))
		}
	}
	out = append(out,
		newRequest("check", wireRequest{Source: "copier = input?x:NAT -> wire!x ->", Depth: 6}, "malformed", http.StatusBadRequest),
		newRequest("traces", wireRequest{Source: Spec("copier"), Process: "nosuch", Depth: 6}, "unknown-process", http.StatusNotFound),
	)
	return out
}

func failuresClasses() []Request {
	var out []Request
	for _, s := range []string{"copier", "protocol", "buffers", "philosophers", "tokenring", "nondet", "multiplier"} {
		depth := 6
		if s == "multiplier" {
			depth = 4
		}
		out = append(out, newRequest("check", wireRequest{Source: Spec(s), Model: "failures", Depth: depth}, "failures/"+s, http.StatusOK))
	}
	return out
}

// moduleSource is a generator of distinct, loadable random modules in the
// `cspscen gen` shape: gen.Module at MaxDepth 3 with two auxiliary
// definitions, plus main and weak = main |~| STOP.
type moduleSource struct {
	r    *rand.Rand
	seen map[string]bool
}

func newModuleSource(seed int64) *moduleSource {
	return &moduleSource{r: mix(seed, streamModules), seen: map[string]bool{}}
}

// next draws the next module never drawn before from this source.
func (g *moduleSource) next() (string, error) {
	for tries := 0; tries < 1000; tries++ {
		m, main := gen.Module(g.r, gen.Config{MaxDepth: 3, Defs: 2})
		m.MustDefine(syntax.Def{Name: "main", Body: main})
		m.MustDefine(syntax.Def{Name: "weak", Body: syntax.IChoice{L: syntax.Ref{Name: "main"}, R: syntax.Stop{}}})
		src := m.String()
		if g.seen[src] {
			continue
		}
		g.seen[src] = true
		if _, err := csp.Load(context.Background(), src, csp.Options{NatWidth: genNat}); err != nil {
			continue
		}
		return src, nil
	}
	return "", fmt.Errorf("workload: generator produced no new loadable module in 1000 draws")
}

// genNat is the NAT sampling width of generated modules.
const genNat = 2

// genListing caps generated modules' trace listings to the empty trace;
// the response still reports the whole set's count and longest trace. A
// rare generated module lists thousands of traces, and uncapped those few
// dominated a run's encode and journal cost, so the cost moved with the
// seed by more than any bound could absorb. Any longer cap would not be
// deterministic: which members survive a truncated listing depends on
// the trie's edge order, which follows the order events were first
// interned — and two concurrent clients make that order vary between
// processes.
const genListing = 1

func session(src string, depth int) Session {
	return Session{
		Op:     newRequest("traces", wireRequest{Source: src, Process: "main", Depth: depth, Nat: genNat, MaxTraces: genListing}, "", http.StatusOK),
		Denote: newRequest("traces", wireRequest{Source: src, Process: "main", Engine: "denote", Depth: depth, Nat: genNat, MaxTraces: genListing}, "", http.StatusOK),
		Refine: newRequest("refine", wireRequest{Source: src, Impl: "main", Spec: "weak", Depth: depth, Nat: genNat}, "", http.StatusOK),
	}
}

// freshWarmup is how many modules fresh-specs' setup pass sends, none
// reused in the timed phase: enough to take first-request costs out of
// it, and a set-up long enough (about 0.1 s) that one scheduling hiccup
// does not dominate it.
const freshWarmup = 256

// freshChecked bounds how many sessions per client are re-checked after
// the run.
const freshChecked = 128

func buildFreshSpecs(fx *Fixture, perClient int) error {
	g := newModuleSource(fx.Seed)
	for i := 0; i < freshWarmup; i++ {
		src, err := g.next()
		if err != nil {
			return err
		}
		s := session(src, 8)
		fx.Setup = append(fx.Setup, s.Op, s.Denote, s.Refine)
	}
	// Modules are drawn round-robin across clients, so client c's i-th
	// session does not depend on the request count.
	sessions := perClient / 3
	every := sessions/freshChecked + 1
	for i := 0; i < sessions; i++ {
		for c := range fx.Clients {
			src, err := g.next()
			if err != nil {
				return err
			}
			s := session(src, 8)
			fx.Clients[c] = append(fx.Clients[c], s.Op, s.Denote, s.Refine)
			if i%every == 0 {
				fx.Sessions = append(fx.Sessions, s)
			}
		}
	}
	return nil
}
