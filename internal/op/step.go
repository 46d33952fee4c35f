// Package op gives the language a small-step operational semantics: a
// labelled transition system whose labels are the paper's communications
// c.m, with hidden communications (inside chan L; P) appearing as τ-steps.
// The traces it enumerates coincide with the denotational prefix-closure
// semantics of internal/sem (cross-checked in tests, mirroring the paper's
// §3 consistency argument), but exploration scales better and yields
// counterexample traces and a step-by-step simulator.
//
// Communication offers, not transitions, are the primitive: an output
// offers one concrete value, while an input offers its whole (possibly
// infinite) domain. Synchronisation inside a parallel composition matches
// offers exactly — an output of value 17 meets an input of NAT even when
// the engine's NAT *sample* is narrower — and only unsynchronised external
// inputs are sampled, when offers are expanded into concrete transitions at
// the boundary. This keeps internal dataflow (e.g. the multiplier's partial
// sums) exact regardless of the sample width.
package op

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"cspsat/internal/sem"
	"cspsat/internal/syntax"
	"cspsat/internal/trace"
	"cspsat/internal/value"
)

// State is a configuration of the transition system: a process term plus
// the environment binding its free variables. Communicated values are
// substituted into terms, so terms stay closed and a state is identified
// by its term: the explorer's table compares terms structurally
// (syntax.Hash and syntax.Equal), which tells them apart exactly as their
// renderings do.
type State struct {
	Proc syntax.Proc
	Env  sem.Env
}

// NewState returns the initial state of a process under an environment.
func NewState(p syntax.Proc, env sem.Env) State { return State{Proc: p, Env: env} }

// Key returns the state's identity rendered as text: the term, which is
// closed (input values are substituted in) and so determines behaviour.
// The explorer does not render its keys; Key serves the transition order's
// tie-break and reference implementations.
func (s State) Key() string { return s.Proc.String() }

// OfferKind discriminates output offers (one concrete value) from input
// offers (a domain of acceptable values).
type OfferKind int

// Offer kinds.
const (
	OfferOut OfferKind = iota + 1
	OfferIn
)

// Offer is one communication capability of a state: on channel Ch, either
// the concrete value Val (OfferOut) or any value of Dom (OfferIn). Tau
// marks offers hidden by an enclosing chan L; they are complete internal
// events, always OfferOut. Next yields the successor state for the value
// actually communicated.
type Offer struct {
	Ch   trace.Chan
	Kind OfferKind
	Tau  bool
	Val  value.V
	Dom  value.Domain
	next func(v value.V) State
}

// Next returns the successor state when value v is communicated. For an
// output offer, v must be the offered value.
func (o Offer) Next(v value.V) State { return o.next(v) }

// String renders the offer for diagnostics.
func (o Offer) String() string {
	s := string(o.Ch)
	switch o.Kind {
	case OfferOut:
		s += "!" + o.Val.String()
	case OfferIn:
		s += "?" + o.Dom.String()
	}
	if o.Tau {
		return "τ(" + s + ")"
	}
	return s
}

// Transition is one concrete step: the communication that occurs, whether
// it is hidden (τ), and the successor state.
type Transition struct {
	Ev   trace.Event
	Tau  bool
	Next State
}

// String renders the transition label; hidden events are wrapped in τ(·).
func (t Transition) String() string {
	if t.Tau {
		return "τ(" + t.Ev.String() + ")"
	}
	return t.Ev.String()
}

// maxUnfold bounds consecutive definition unfoldings within a single Offers
// call, so that unguarded recursion (p ≜ p, or p ≜ (p | q)) is reported
// rather than looping forever.
const maxUnfold = 256

// Offers returns every communication offer enabled in state s.
func Offers(s State) ([]Offer, error) {
	var out []Offer
	if err := offers(s.Proc, s.Env, 0, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// offerScratch recycles the offer buffers the recursion fills: exploration
// computes offers on every state visit and discards them immediately, so
// pooling them (and the per-composition merge scratch) takes the slice
// churn out of the GC's hands.
var offerScratch = sync.Pool{New: func() any { s := make([]Offer, 0, 16); return &s }}

// Step returns every concrete transition enabled in state s,
// deterministically ordered. Unsynchronised input offers are expanded over
// their sampled domains here, at the external boundary.
func Step(s State) ([]Transition, error) {
	ts, conts, err := transitions(s)
	if err != nil {
		return nil, err
	}
	for i := range ts {
		ts[i].Next = conts[i](ts[i].Ev.Msg)
	}
	return ts, nil
}

// transitions returns Step's transitions of s, in Step's order, with Next
// unset: conts[i] builds the successor of ts[i] from its message.
func transitions(s State) (ts []Transition, conts []func(value.V) State, err error) {
	sp := offerScratch.Get().(*[]Offer)
	defer func() {
		*sp = (*sp)[:0]
		offerScratch.Put(sp)
	}()
	if err := offers(s.Proc, s.Env, 0, sp); err != nil {
		return nil, nil, err
	}
	ts = make([]Transition, 0, len(*sp))
	conts = make([]func(value.V) State, 0, len(*sp))
	for _, o := range *sp {
		switch o.Kind {
		case OfferOut:
			ts = append(ts, Transition{Ev: trace.Event{Chan: o.Ch, Msg: o.Val}, Tau: o.Tau})
			conts = append(conts, o.next)
		case OfferIn:
			for _, v := range o.Dom.Enumerate() {
				ts = append(ts, Transition{Ev: trace.Event{Chan: o.Ch, Msg: v}, Tau: o.Tau})
				conts = append(conts, o.next)
			}
		}
	}
	sort.Sort(&tsByLabel{ts: ts, conts: conts})
	return ts, conts, nil
}

// tsByLabel orders transitions visible-first, then by event, then by
// successor key. The key tiebreak only applies to transitions sharing an
// event, so a successor is built and rendered only then, and at most once
// per transition — rendering is the successor term's full text, far too
// expensive to repeat on every comparison (or to run eagerly for the
// common all-distinct case).
type tsByLabel struct {
	ts    []Transition
	conts []func(value.V) State
	keys  []string
}

func (s *tsByLabel) Len() int { return len(s.ts) }
func (s *tsByLabel) Swap(i, j int) {
	s.ts[i], s.ts[j] = s.ts[j], s.ts[i]
	s.conts[i], s.conts[j] = s.conts[j], s.conts[i]
	if s.keys != nil {
		s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
	}
}
func (s *tsByLabel) key(i int) string {
	if s.keys == nil {
		s.keys = make([]string, len(s.ts))
	}
	if s.keys[i] == "" {
		s.keys[i] = s.conts[i](s.ts[i].Ev.Msg).Key()
	}
	return s.keys[i]
}
func (s *tsByLabel) Less(i, j int) bool {
	if s.ts[i].Tau != s.ts[j].Tau {
		return !s.ts[i].Tau
	}
	if c := s.ts[i].Ev.Compare(s.ts[j].Ev); c != 0 {
		return c < 0
	}
	return strings.Compare(s.key(i), s.key(j)) < 0
}

// offers appends every communication offer enabled by p to *dst. The
// append-into shape lets Alt and the prefix forms contribute offers with no
// slice allocation at all, and lets Par and Hiding carve their operands'
// offers out of dst as spans instead of materialising fresh slices.
func offers(p syntax.Proc, env sem.Env, unfolds int, dst *[]Offer) error {
	switch t := p.(type) {
	case syntax.Stop:
		return nil

	case syntax.Ref:
		if unfolds >= maxUnfold {
			return fmt.Errorf("op: unguarded recursion: %d consecutive unfoldings at %s", unfolds, t)
		}
		body, err := env.Instantiate(t)
		if err != nil {
			return err
		}
		return offers(body, env, unfolds+1, dst)

	case syntax.Output:
		c, err := env.EvalChanRef(t.Ch)
		if err != nil {
			return err
		}
		v, err := env.EvalExpr(t.Val)
		if err != nil {
			return err
		}
		cont := t.Cont
		*dst = append(*dst, Offer{
			Ch:   c,
			Kind: OfferOut,
			Val:  v,
			next: func(value.V) State { return State{Proc: cont, Env: env} },
		})
		return nil

	case syntax.Input:
		c, err := env.EvalChanRef(t.Ch)
		if err != nil {
			return err
		}
		dom, err := env.EvalSet(t.Dom)
		if err != nil {
			return err
		}
		cont, varName := t.Cont, t.Var
		*dst = append(*dst, Offer{
			Ch:   c,
			Kind: OfferIn,
			Dom:  dom,
			next: func(v value.V) State {
				// The paper's P^x_v of rule 6: substitute the communicated
				// value into the continuation term, keeping terms closed. A
				// value is a literal, which no input can capture.
				p, _ := syntax.SubstProc(cont, varName, sem.ValueToExpr(v))
				return State{Proc: p, Env: env}
			},
		})
		return nil

	case syntax.Alt:
		// In the trace model (P | Q) denotes the union of behaviours; the
		// enabled first offers are those of either side.
		if err := offers(t.L, env, unfolds, dst); err != nil {
			return err
		}
		return offers(t.R, env, unfolds, dst)

	case syntax.IChoice:
		// Internal choice resolves by a silent step to one side — the
		// time-dependent non-determinism the paper's conclusion describes.
		// The τ-events carry branch indices on the pseudo-channel TauChan
		// for the step log; they never become visible.
		left, right := t.L, t.R
		*dst = append(*dst,
			Offer{Ch: trace.TauChan, Kind: OfferOut, Tau: true, Val: value.Int(0),
				next: func(value.V) State { return State{Proc: left, Env: env} }},
			Offer{Ch: trace.TauChan, Kind: OfferOut, Tau: true, Val: value.Int(1),
				next: func(value.V) State { return State{Proc: right, Env: env} }})
		return nil

	case syntax.Par:
		return offersPar(t, env, unfolds, dst)

	case syntax.Hiding:
		return offersHiding(t, env, unfolds, dst)

	default:
		return fmt.Errorf("op: cannot step process form %T", p)
	}
}

// hideCtx is the context shared by every rewrapped offer of one hiding
// visit. Offer continuations capture only a pointer to it (plus the inner
// continuation), keeping the per-offer closure small — exploration mints
// these closures on every state visit, so their size sets the GC rate.
type hideCtx struct {
	channels []syntax.ChanItem
}

func (c *hideCtx) rewrap(on func(value.V) State, v value.V) State {
	n := on(v)
	return State{Proc: syntax.Hiding{Channels: c.channels, Body: n.Proc}, Env: n.Env}
}

func offersHiding(t syntax.Hiding, env sem.Env, unfolds int, dst *[]Offer) error {
	hidden, err := env.EvalChanItems(t.Channels)
	if err != nil {
		return err
	}
	base := len(*dst)
	if err := offers(t.Body, env, unfolds, dst); err != nil {
		return err
	}
	ctx := &hideCtx{channels: t.Channels}
	sp := offerScratch.Get().(*[]Offer)
	out := (*sp)[:0]
	for _, o := range (*dst)[base:] {
		on := o.next
		rewrap := func(v value.V) State { return ctx.rewrap(on, v) }
		if !hidden.Contains(o.Ch) {
			out = append(out, Offer{Ch: o.Ch, Kind: o.Kind, Tau: o.Tau, Val: o.Val, Dom: o.Dom, next: rewrap})
			continue
		}
		switch o.Kind {
		case OfferOut:
			out = append(out, Offer{Ch: o.Ch, Kind: OfferOut, Tau: true, Val: o.Val, next: rewrap})
		case OfferIn:
			// A lone input on a hidden channel: the communication happens
			// internally with a non-determinate value; expand over the
			// sampled domain as internal τ events.
			for _, v := range o.Dom.Enumerate() {
				out = append(out, Offer{Ch: o.Ch, Kind: OfferOut, Tau: true, Val: v, next: rewrap})
			}
		}
	}
	*dst = append((*dst)[:base], out...)
	*sp = out[:0]
	offerScratch.Put(sp)
	return nil
}

// parCtx is the context shared by every offer of one parallel-composition
// visit; as with hideCtx, per-offer continuations capture only the pointer
// and the two inner continuations.
type parCtx struct {
	l, r           syntax.Proc
	alphaL, alphaR []syntax.ChanItem
	env            sem.Env
}

func (c *parCtx) rejoin(ln, rn func(value.V) State, v value.V) State {
	lp, rp := c.l, c.r
	if ln != nil {
		lp = ln(v).Proc
	}
	if rn != nil {
		rp = rn(v).Proc
	}
	return State{Proc: syntax.Par{L: lp, R: rp, AlphaL: c.alphaL, AlphaR: c.alphaR}, Env: c.env}
}

func offersPar(t syntax.Par, env sem.Env, unfolds int, dst *[]Offer) error {
	x, y, err := sem.ParAlphabets(t, env)
	if err != nil {
		return err
	}
	// Keep the (possibly explicit) alphabets on the successor terms, so
	// they are not re-inferred from the narrowed residual processes: the
	// alphabet of a network is fixed at composition time, not per state.
	alphaL, alphaR := t.AlphaL, t.AlphaR
	if alphaL == nil {
		alphaL = env.ChanItems(x)
	}
	if alphaR == nil {
		alphaR = env.ChanItems(y)
	}
	// Both sides' offers land in dst as adjacent spans; the combined offers
	// are assembled in a pooled scratch (reading the spans) and then written
	// back over them.
	base := len(*dst)
	if err := offers(t.L, env, unfolds, dst); err != nil {
		return err
	}
	mid := len(*dst)
	if err := offers(t.R, env, unfolds, dst); err != nil {
		return err
	}
	l, r := (*dst)[base:mid], (*dst)[mid:]
	ctx := &parCtx{l: t.L, r: t.R, alphaL: alphaL, alphaR: alphaR, env: env}
	rejoin := func(ln, rn func(value.V) State) func(value.V) State {
		return func(v value.V) State { return ctx.rejoin(ln, rn, v) }
	}
	sp := offerScratch.Get().(*[]Offer)
	out := (*sp)[:0]
	for _, lo := range l {
		if lo.Tau || !y.Contains(lo.Ch) {
			// τ-steps and channels private to the left interleave.
			out = append(out, Offer{Ch: lo.Ch, Kind: lo.Kind, Tau: lo.Tau, Val: lo.Val, Dom: lo.Dom, next: rejoin(lo.next, nil)})
			continue
		}
		// Shared channel: needs a matching offer on the right.
		for _, ro := range r {
			if ro.Tau || ro.Ch != lo.Ch {
				continue
			}
			if synced, ok := syncOffers(lo, ro, rejoin(lo.next, ro.next)); ok {
				out = append(out, synced)
			}
		}
	}
	for _, ro := range r {
		if ro.Tau || !x.Contains(ro.Ch) {
			out = append(out, Offer{Ch: ro.Ch, Kind: ro.Kind, Tau: ro.Tau, Val: ro.Val, Dom: ro.Dom, next: rejoin(nil, ro.next)})
		}
		// Shared offers were handled (or refused) in the left pass.
	}
	*dst = append((*dst)[:base], out...)
	*sp = out[:0]
	offerScratch.Put(sp)
	return nil
}

// syncOffers combines two offers on the same shared channel into the joint
// offer of the synchronised communication, per the paper: "one of them
// determines the value transmitted by an output c!e and the other is
// prepared to accept any value by an input c?x:M". Output–output
// synchronisation requires equal values; input–input intersects domains.
func syncOffers(a, b Offer, next func(value.V) State) (Offer, bool) {
	switch {
	case a.Kind == OfferOut && b.Kind == OfferOut:
		if !a.Val.Equal(b.Val) {
			return Offer{}, false
		}
		return Offer{Ch: a.Ch, Kind: OfferOut, Val: a.Val, next: next}, true
	case a.Kind == OfferOut && b.Kind == OfferIn:
		if !b.Dom.Contains(a.Val) {
			return Offer{}, false
		}
		return Offer{Ch: a.Ch, Kind: OfferOut, Val: a.Val, next: next}, true
	case a.Kind == OfferIn && b.Kind == OfferOut:
		if !a.Dom.Contains(b.Val) {
			return Offer{}, false
		}
		return Offer{Ch: a.Ch, Kind: OfferOut, Val: b.Val, next: next}, true
	default:
		return Offer{Ch: a.Ch, Kind: OfferIn, Dom: IntersectDomain{A: a.Dom, B: b.Dom}, next: next}, true
	}
}

// IntersectDomain is the meet of two message domains, arising when two
// inputs synchronise on a shared channel.
type IntersectDomain struct {
	A, B value.Domain
}

// Contains implements value.Domain.
func (d IntersectDomain) Contains(v value.V) bool { return d.A.Contains(v) && d.B.Contains(v) }

// Enumerate implements value.Domain: the union of both samples, filtered by
// joint membership, deduplicated.
func (d IntersectDomain) Enumerate() []value.V {
	seen := map[string]bool{}
	var out []value.V
	for _, v := range append(d.A.Enumerate(), d.B.Enumerate()...) {
		if d.Contains(v) && !seen[v.Key()] {
			seen[v.Key()] = true
			out = append(out, v)
		}
	}
	return out
}

// IsFinite implements value.Domain.
func (d IntersectDomain) IsFinite() bool { return d.A.IsFinite() || d.B.IsFinite() }

func (d IntersectDomain) String() string { return d.A.String() + "∩" + d.B.String() }
