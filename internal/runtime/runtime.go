// Package runtime executes process networks as real Go concurrency: each
// sequential component of a parallel composition runs in its own goroutine,
// and a coordinator implements the paper's synchronous communication — one
// event c.m in which every process whose alphabet contains c participates
// simultaneously. Buffered Go channels cannot express this rendezvous (and
// point-to-point unbuffered channels cannot express multiway
// synchronisation or input/output symmetry), so goroutines exchange offers
// with the coordinator over Go channels and the coordinator picks the next
// event; see DESIGN.md §3 for the substitution note, and the runtime tests
// for a demonstration that naive buffered channels violate the paper's
// trace invariants.
//
// A Monitor can be attached to observe every communication as it happens;
// MonitorSat checks a sat-assertion before and after each visible event —
// the operational reading of the paper's "P sat R".
package runtime

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"cspsat/internal/assertion"
	"cspsat/internal/op"
	"cspsat/internal/pool"
	"cspsat/internal/sem"
	"cspsat/internal/syntax"
	"cspsat/internal/trace"
	"cspsat/internal/value"
)

// EventRecord is one communication performed by a running network.
type EventRecord struct {
	Ev trace.Event
	// Hidden marks events on channels concealed by chan L; they do not
	// appear in the visible trace.
	Hidden bool
	// Leaves lists the indices of the participating leaf processes.
	Leaves []int
}

// Monitor observes each communication as it happens. hist is the visible
// history *including* the event just performed (for hidden events, hist is
// unchanged). Returning an error aborts the run; the error is reported in
// Result.MonitorErr.
type Monitor func(rec EventRecord, hist trace.History) error

// Config controls a run.
type Config struct {
	// Env supplies the module. Required.
	Env sem.Env
	// Seed drives every non-deterministic choice; runs with equal seeds
	// and configs are identical.
	Seed int64
	// MaxEvents stops the run after this many communications (hidden ones
	// included). Zero means 1024.
	MaxEvents int
	// Monitor, when non-nil, observes each event.
	Monitor Monitor
}

func (c Config) maxEvents() int {
	if c.MaxEvents <= 0 {
		return 1024
	}
	return c.MaxEvents
}

// Result reports a completed run.
type Result struct {
	// Trace is the visible trace of the run.
	Trace trace.T
	// Events is the full log, hidden events included.
	Events []EventRecord
	// Quiescent is true when the network stopped because no communication
	// was possible (deadlock or completion — the paper's partial
	// correctness deliberately does not distinguish them).
	Quiescent bool
	// MonitorErr carries the monitor's error when it aborted the run.
	MonitorErr error
	// LeafCount is how many goroutines the network decomposed into.
	LeafCount int
}

// leaf is one sequential component with its fixed alphabet.
type leaf struct {
	index    int
	alphabet trace.Set
	state    op.State
}

// offerMsg is a leaf's report of its current communication capabilities.
type offerMsg struct {
	index  int
	offers []op.Offer
	err    error
}

// decision tells a leaf which communication it participated in; a nil
// decision (stop=true) shuts the leaf down.
type decision struct {
	ch   trace.Chan
	val  value.V
	stop bool
}

// Run executes the process as a concurrent network. ctx is checked before
// every event: once it is done, Run stops the leaves and returns
// pool.Canceled's error, which wraps csperr.ErrCanceled.
func Run(ctx context.Context, p syntax.Proc, cfg Config) (*Result, error) {
	leaves, hidden, err := decompose(p, cfg.Env, trace.NewSet())
	if err != nil {
		return nil, err
	}
	if len(leaves) == 0 {
		return &Result{Quiescent: true}, nil
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	offerCh := make(chan offerMsg)
	decCh := make([]chan decision, len(leaves))
	for i := range decCh {
		decCh[i] = make(chan decision)
	}
	for _, lf := range leaves {
		go runLeaf(lf, offerCh, decCh[lf.index])
	}
	stopAll := func() {
		for i := range decCh {
			// Each leaf is either waiting for a decision or about to send
			// an offer; drain offers until the stop lands.
			for {
				select {
				case decCh[i] <- decision{stop: true}:
				case <-offerCh:
					continue
				}
				break
			}
		}
	}

	res := &Result{LeafCount: len(leaves)}
	hist := make(trace.History)
	current := make([][]op.Offer, len(leaves))
	pending := len(leaves)

	for {
		if err := pool.Canceled(ctx); err != nil {
			stopAll()
			return nil, err
		}
		for pending > 0 {
			m := <-offerCh
			if m.err != nil {
				stopAll()
				return nil, fmt.Errorf("runtime: leaf %d: %w", m.index, m.err)
			}
			current[m.index] = m.offers
			pending--
		}
		cands := candidates(leaves, current, hidden, rng)
		if len(cands) == 0 {
			res.Quiescent = true
			stopAll()
			return res, nil
		}
		ev := cands[rng.Intn(len(cands))]
		rec := EventRecord{
			Ev:     trace.Event{Chan: ev.ch, Msg: ev.val},
			Hidden: ev.hidden,
			Leaves: ev.parts,
		}
		res.Events = append(res.Events, rec)
		if !ev.hidden {
			res.Trace = append(res.Trace, rec.Ev)
			hist[ev.ch] = append(hist[ev.ch], ev.val)
		}
		if cfg.Monitor != nil {
			if err := cfg.Monitor(rec, hist); err != nil {
				res.MonitorErr = err
				stopAll()
				return res, nil
			}
		}
		for _, li := range ev.parts {
			decCh[li] <- decision{ch: ev.ch, val: ev.val}
			pending++
		}
		if len(res.Events) >= cfg.maxEvents() {
			stopAll()
			return res, nil
		}
	}
}

func runLeaf(lf leaf, offerCh chan<- offerMsg, decCh <-chan decision) {
	state := lf.state
	for {
		offers, err := op.Offers(state)
		offerCh <- offerMsg{index: lf.index, offers: offers, err: err}
		if err != nil {
			// Stay alive until the coordinator's stop lands, so stopAll
			// never blocks on a vanished leaf.
			<-decCh
			return
		}
		d := <-decCh
		if d.stop {
			return
		}
		next, ok := applyDecision(offers, d)
		if !ok {
			// The coordinator only fires events every participant offered;
			// reaching here is a coordination bug, not a user error.
			panic(fmt.Sprintf("runtime: leaf %d told to perform %s.%s it never offered", lf.index, d.ch, d.val))
		}
		state = next
	}
}

func applyDecision(offers []op.Offer, d decision) (op.State, bool) {
	for _, o := range offers {
		if o.Ch != d.ch {
			continue
		}
		switch o.Kind {
		case op.OfferOut:
			if o.Val.Equal(d.val) {
				return o.Next(d.val), true
			}
		case op.OfferIn:
			if o.Dom.Contains(d.val) {
				return o.Next(d.val), true
			}
		}
	}
	return op.State{}, false
}

// candidate is one fireable communication.
type candidate struct {
	ch     trace.Chan
	val    value.V
	hidden bool
	parts  []int
}

// candidates computes every communication the network can currently
// perform: for each channel, every value all participants accept. A τ offer
// inside a single leaf is its own candidate.
func candidates(leaves []leaf, current [][]op.Offer, hidden trace.Set, rng *rand.Rand) []candidate {
	var out []candidate
	// τ offers fire alone.
	for li, offs := range current {
		for _, o := range offs {
			if o.Tau {
				out = append(out, candidate{ch: o.Ch, val: o.Val, hidden: true, parts: []int{li}})
			}
		}
	}
	// Group non-τ offers by channel.
	type chanOffers struct {
		parts  []int
		offers [][]op.Offer
	}
	byChan := map[trace.Chan]*chanOffers{}
	for li, offs := range current {
		seen := map[trace.Chan]bool{}
		perChan := map[trace.Chan][]op.Offer{}
		for _, o := range offs {
			if o.Tau {
				continue
			}
			perChan[o.Ch] = append(perChan[o.Ch], o)
			seen[o.Ch] = true
		}
		for ch, os := range perChan {
			co := byChan[ch]
			if co == nil {
				co = &chanOffers{}
				byChan[ch] = co
			}
			co.parts = append(co.parts, li)
			co.offers = append(co.offers, os)
		}
		_ = seen
	}
	chans := make([]trace.Chan, 0, len(byChan))
	for ch := range byChan {
		chans = append(chans, ch)
	}
	sort.Slice(chans, func(i, j int) bool { return chans[i] < chans[j] })
	for _, ch := range chans {
		co := byChan[ch]
		// Resolve the channel id once per round; the per-leaf alphabet and
		// hidden-set probes below are then single bit tests. An unknown id
		// (channel never interned) belongs to no set, matching Contains.
		cid, known := trace.LookupChan(ch)
		// Every leaf whose alphabet contains ch must currently offer on it.
		ready := true
		for _, lf := range leaves {
			if known && lf.alphabet.ContainsID(cid) && !offersOn(current[lf.index], ch) {
				ready = false
				break
			}
		}
		if !ready {
			continue
		}
		for _, v := range candidateValues(co.offers, rng) {
			if acceptedByAll(co.offers, v) {
				out = append(out, candidate{
					ch:     ch,
					val:    v,
					hidden: known && hidden.ContainsID(cid),
					parts:  append([]int(nil), co.parts...),
				})
			}
		}
	}
	return out
}

func offersOn(offs []op.Offer, ch trace.Chan) bool {
	for _, o := range offs {
		if !o.Tau && o.Ch == ch {
			return true
		}
	}
	return false
}

// candidateValues returns the values worth testing on a channel: every
// value some participant outputs; if all participants input, a sample of
// the first participant's domain (the paper's "highly non-determinate"
// all-input case, and the environment's free choice on an external input).
func candidateValues(offerSets [][]op.Offer, rng *rand.Rand) []value.V {
	var outs []value.V
	seen := map[string]bool{}
	for _, os := range offerSets {
		for _, o := range os {
			if o.Kind == op.OfferOut && !seen[o.Val.Key()] {
				seen[o.Val.Key()] = true
				outs = append(outs, o.Val)
			}
		}
	}
	if len(outs) > 0 {
		return outs
	}
	for _, os := range offerSets {
		for _, o := range os {
			if o.Kind == op.OfferIn {
				return o.Dom.Enumerate()
			}
		}
	}
	return nil
}

func acceptedByAll(offerSets [][]op.Offer, v value.V) bool {
	for _, os := range offerSets {
		ok := false
		for _, o := range os {
			if (o.Kind == op.OfferOut && o.Val.Equal(v)) ||
				(o.Kind == op.OfferIn && o.Dom.Contains(v)) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// decompose splits a term into its parallel leaves. Hiding above a
// composition adds its channels to the network-level hidden set; hiding
// inside a leaf is handled by the leaf's own offer computation (τ offers).
func decompose(p syntax.Proc, env sem.Env, hidden trace.Set) ([]leaf, trace.Set, error) {
	switch t := p.(type) {
	case syntax.Par:
		ls, h, err := decompose(t.L, env, hidden)
		if err != nil {
			return nil, trace.Set{}, err
		}
		rs, h2, err := decompose(t.R, env, h)
		if err != nil {
			return nil, trace.Set{}, err
		}
		for i := range rs {
			rs[i].index += len(ls)
		}
		return append(ls, rs...), h2, nil
	case syntax.Hiding:
		hs, err := env.EvalChanItems(t.Channels)
		if err != nil {
			return nil, trace.Set{}, err
		}
		return decompose(t.Body, env, hidden.Union(hs))
	case syntax.Ref:
		// Unfold definitions that merely name a network, so that e.g.
		// "protocol = chan wire; protonet" decomposes into its leaves. A
		// self-recursive definition whose unfolding never reaches a leaf
		// form is caught by op's unfold bound when the leaf first steps;
		// reference chains here are bounded by the module's size.
		body, err := env.Instantiate(t)
		if err != nil {
			return nil, trace.Set{}, err
		}
		switch body.(type) {
		case syntax.Par, syntax.Hiding:
			return decompose(body, env, hidden)
		}
		alpha, err := sem.Alphabet(t, env)
		if err != nil {
			return nil, trace.Set{}, err
		}
		return []leaf{{alphabet: alpha, state: op.NewState(t, env)}}, hidden, nil
	default:
		alpha, err := sem.Alphabet(p, env)
		if err != nil {
			return nil, trace.Set{}, err
		}
		return []leaf{{alphabet: alpha, state: op.NewState(p, env)}}, hidden, nil
	}
}

// ErrSatViolated is wrapped by MonitorSat's abort error.
var ErrSatViolated = errors.New("sat assertion violated")

// MonitorSat returns a Monitor that evaluates the assertion after every
// visible communication (the history starts empty, so "before the first"
// is covered by construction — and the module's R_<> obligations cover the
// initial point in the proof system). funcs may be nil.
func MonitorSat(a assertion.A, env sem.Env, funcs *assertion.Registry) Monitor {
	if funcs == nil {
		funcs = assertion.NewRegistry()
	}
	return func(rec EventRecord, hist trace.History) error {
		if rec.Hidden {
			return nil
		}
		ok, err := assertion.Eval(a, assertion.NewCtx(env, hist, funcs))
		if err != nil {
			return fmt.Errorf("monitor: %w", err)
		}
		if !ok {
			return fmt.Errorf("%w: %s fails after %s (history %s)", ErrSatViolated, a, rec.Ev, hist)
		}
		return nil
	}
}
