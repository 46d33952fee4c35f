package assertion

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"cspsat/internal/pool"
	"cspsat/internal/sem"
	"cspsat/internal/trace"
	"cspsat/internal/value"
)

// Bounded validity: decide whether a pure assertion (one whose truth depends
// only on channel histories and free variables, not on any process) holds
// for *every* history and variable assignment drawn from bounded domains.
//
// The proof checker uses this to discharge the non-process leaves of the
// paper's proofs — facts like "f(<>) ≤ <>" (a single evaluation) or
// "wire ≤ input ⇒ v⌢wire ≤ v⌢input" (quantified over histories and v). It
// is sound for refutation (a counterexample is a real counterexample) and
// complete only up to the bound, which is recorded on every discharged
// obligation; each paper proof additionally cross-checks its conclusion
// with the model checker.

// ValidityConfig bounds the search space of Valid.
type ValidityConfig struct {
	// Env supplies the module (constant arrays, named sets) and NAT width.
	Env sem.Env
	// Funcs resolves registered functions; nil means NewRegistry().
	Funcs *Registry
	// MaxLen bounds the length of each channel history. Zero means 3.
	MaxLen int
	// DefaultDom is the message domain used for channels and variables
	// without a specific entry. Nil means NAT with the Env's sample width.
	DefaultDom value.Domain
	// ChanDom overrides the message domain per channel.
	ChanDom map[string]value.Domain
	// VarDom gives the domain of each free variable; free variables
	// without an entry use DefaultDom.
	VarDom map[string]value.Domain
	// MaxCases caps the number of (history, assignment) cases, counted
	// before the search however few of them it evaluates; exceeding it is
	// an error rather than a silent pass. Zero means 1<<22.
	MaxCases int
}

func (c ValidityConfig) maxLen() int {
	if c.MaxLen <= 0 {
		return 3
	}
	return c.MaxLen
}

func (c ValidityConfig) maxCases() int {
	if c.MaxCases <= 0 {
		return 1 << 22
	}
	return c.MaxCases
}

func (c ValidityConfig) domFor(name string, m map[string]value.Domain) value.Domain {
	if m != nil {
		if d, ok := m[name]; ok {
			return d
		}
	}
	if c.DefaultDom != nil {
		return c.DefaultDom
	}
	return value.Nat{SampleWidth: c.Env.NatWidth()}
}

// Counterexample is a falsifying case found by Valid.
type Counterexample struct {
	Hist trace.History
	Vars map[string]value.V
}

// String renders the counterexample deterministically.
func (c *Counterexample) String() string {
	var parts []string
	if len(c.Vars) > 0 {
		names := make([]string, 0, len(c.Vars))
		for n := range c.Vars {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			parts = append(parts, n+"="+c.Vars[n].String())
		}
	}
	parts = append(parts, c.Hist.String())
	return strings.Join(parts, "; ")
}

// Valid decides the assertion over every history of its free channels up
// to MaxLen and every assignment of its free variables from their domains.
// It returns nil when no case falsifies it. Otherwise it reports the least
// case that falsifies it, or the error of the least case whose evaluation
// fails, where cases are numbered in mixed radix: the channels in name
// order, then the variables in name order, the first channel varying
// fastest and each history list shortest first.
//
// An implication A => B is decided by a pruned depth-first search (see
// search); any other formula by walking the cases in that order up to the
// first failing one. Once ctx is done, Valid returns an error wrapping
// csperr.ErrCanceled; it looks every few thousand evaluations, and a nil
// ctx never cancels.
func Valid(ctx context.Context, a A, cfg ValidityConfig) (*Counterexample, error) {
	chans, err := concreteChans(a)
	if err != nil {
		return nil, err
	}
	fv := FreeVars(a)
	vars := make([]string, 0, len(fv))
	for v := range fv {
		vars = append(vars, v)
	}
	sort.Strings(vars)

	// Count the cases, saturating past the cap, before building any
	// history list: a channel over k values has 1 + k + … + k^MaxLen
	// histories, so the lists of a wide domain can outgrow memory.
	limit, maxLen := cfg.maxCases(), cfg.maxLen()
	total := 1
	varVals := make([][]value.V, len(vars))
	for i, v := range vars {
		varVals[i] = cfg.domFor(v, cfg.VarDom).Enumerate()
		if len(varVals[i]) == 0 {
			return nil, fmt.Errorf("assertion: empty domain for variable %q", v)
		}
		total = min(total*len(varVals[i]), limit+1)
	}
	alphabets := make([][]value.V, len(chans))
	for i, ch := range chans {
		alphabets[i] = cfg.domFor(string(ch), cfg.ChanDom).Enumerate()
		total = min(total*seqCount(len(alphabets[i]), maxLen, limit), limit+1)
	}
	if total > limit {
		return nil, fmt.Errorf("assertion: bounded validity space exceeds %d cases", limit)
	}
	chanSeqs := make([][][]value.V, len(chans))
	for i, alphabet := range alphabets {
		chanSeqs[i] = allSeqs(alphabet, maxLen, seqCount(len(alphabet), maxLen, limit))
	}

	funcs := cfg.Funcs
	if funcs == nil {
		funcs = NewRegistry()
	}
	s := &search{ctx: ctx, a: a, chans: chans, vars: vars, chanSeqs: chanSeqs, varVals: varVals}
	s.prepare(cfg.Env, funcs)
	if s.holds(0) {
		s.visit(0)
	}
	return s.result()
}

// cancelEvery is how many evaluations Valid makes between two looks at its
// context.
const cancelEvery = 4096

// search is one Valid call's depth-first walk over the case space.
//
// Slots number the case's coordinates: slot i < len(chans) is channel i,
// slot len(chans)+j is variable j, and a higher slot is more significant
// in the order cases are numbered by. The walk binds one slot per depth,
// in the order plan picks. A = A1 & … & Ak => B is evaluated as Eval
// would, conjunct by conjunct: Ai is due at the first depth where its
// slots and those of every earlier conjunct are bound, and is evaluated
// only where A1 … A(i-1) held. Where Ai is false, no case below the node
// falsifies the formula, so the walk skips the subtree. Where Ai fails,
// every case below fails with the same error, the least of them being the
// one that takes index 0 in every unbound slot. B is evaluated at the
// leaves. The walk keeps the least failing case it has met and skips every
// subtree whose cases all come after it, so the case it reports is the
// least of all failing cases: the one the numbered walk stops at.
//
// Any other formula is the consequent of an empty antecedent. Its slots
// are bound most significant first, so the walk meets the cases in their
// numbered order and stops at the first failing one.
type search struct {
	ctx      context.Context
	a        A   // the formula as given, for the error text
	conj     []A // the antecedent's conjuncts, in Eval's order
	cons     A   // the consequent, or the whole formula
	chans    []trace.Chan
	vars     []string
	chanSeqs [][][]value.V
	varVals  [][]value.V

	order   []int // order[d] is the slot bound at depth d
	pos     []int // pos[slot] is the depth that binds slot
	due     [][]A // due[d] holds the conjuncts evaluated once depths < d are bound
	hist    trace.History
	ctxs    []Ctx // ctxs[d] binds the variables of depths < d
	idx     []int // idx[slot] indexes the slot's current value
	best    []int // the least failing case met, nil before the first
	spare   []int // scratch for record
	bestErr error // best's evaluation error; nil when it is a counterexample

	evals, nextLook int
	err             error // cancellation
}

// prepare sizes the walk's state, splits the formula into antecedent
// conjuncts and consequent, and plans the binding order.
func (s *search) prepare(env sem.Env, funcs *Registry) {
	n := len(s.chans) + len(s.vars)
	s.pos = make([]int, n)
	s.due = make([][]A, n+1)
	s.idx = make([]int, n)
	s.hist = make(trace.History, len(s.chans))
	for i, ch := range s.chans {
		s.hist[ch] = s.chanSeqs[i][0]
	}
	s.ctxs = make([]Ctx, n+1)
	s.ctxs[0] = Ctx{Env: env, Hist: s.hist, Funcs: funcs}
	s.nextLook = cancelEvery
	s.cons = s.a
	for {
		imp, ok := s.cons.(Implies)
		if !ok {
			break
		}
		s.conj = appendConjuncts(s.conj, imp.L)
		s.cons = imp.R
	}
	s.plan()
}

// appendConjuncts flattens nested conjunctions left to right, the order in
// which Eval meets them.
func appendConjuncts(out []A, a A) []A {
	if and, ok := a.(And); ok {
		return appendConjuncts(appendConjuncts(out, and.L), and.R)
	}
	return append(out, a)
}

// plan orders the slots: each conjunct's unbound slots in turn, most
// significant first, then the remaining slots most significant first.
func (s *search) plan() {
	for i := range s.pos {
		s.pos[i] = -1
	}
	place := func(slot int) {
		if s.pos[slot] < 0 {
			s.pos[slot] = len(s.order)
			s.order = append(s.order, slot)
		}
	}
	at := 0
	for _, f := range s.conj {
		slots := s.slotsOf(f)
		for slot := len(slots) - 1; slot >= 0; slot-- {
			if slots[slot] {
				place(slot)
				at = max(at, s.pos[slot]+1)
			}
		}
		s.due[at] = append(s.due[at], f)
	}
	for slot := len(s.pos) - 1; slot >= 0; slot-- {
		place(slot)
	}
}

// slotsOf marks the slots f's value can depend on: its channels, which
// Valid has made sure are all concrete, and its free variables.
func (s *search) slotsOf(f A) []bool {
	slots := make([]bool, len(s.pos))
	fc, fv := FreeChans(f), FreeVars(f)
	for i, ch := range s.chans {
		slots[i] = fc[string(ch)]
	}
	for j, v := range s.vars {
		slots[len(s.chans)+j] = fv[v]
	}
	return slots
}

// visit binds depth d to each of its slot's values in turn, and the depths
// below it, where the due conjuncts hold.
func (s *search) visit(d int) {
	if d == len(s.order) {
		if ok, err := s.eval(s.cons, d); err != nil || !ok {
			s.record(d, err)
		}
		return
	}
	slot := s.order[d]
	ch := slot < len(s.chans)
	s.ctxs[d+1] = s.ctxs[d]
	for v := range s.size(slot) {
		if s.evals >= s.nextLook {
			s.nextLook = s.evals + cancelEvery
			if s.err = pool.Canceled(s.ctx); s.err != nil {
				return
			}
		}
		s.idx[slot] = v
		if s.best != nil && s.beyond(d) {
			break
		}
		if ch {
			s.hist[s.chans[slot]] = s.chanSeqs[slot][v]
		} else {
			j := slot - len(s.chans)
			s.ctxs[d+1].Env = s.ctxs[d].Env.Bind(s.vars[j], s.varVals[j][v])
		}
		if s.holds(d + 1) {
			s.visit(d + 1)
		}
		if s.err != nil {
			return
		}
	}
}

func (s *search) size(slot int) int {
	if slot < len(s.chans) {
		return len(s.chanSeqs[slot])
	}
	return len(s.varVals[slot-len(s.chans)])
}

// holds evaluates the conjuncts due once depths < d are bound, in order,
// and reports whether they all hold. A failing one is recorded.
func (s *search) holds(d int) bool {
	for _, f := range s.due[d] {
		ok, err := s.eval(f, d)
		if err != nil {
			s.record(d, err)
			return false
		}
		if !ok {
			return false
		}
	}
	return true
}

func (s *search) eval(f A, d int) (bool, error) {
	s.evals++
	return Eval(f, &s.ctxs[d])
}

// beyond reports whether every case that extends the bound depths ≤ d
// comes after the least failing case met so far.
func (s *search) beyond(d int) bool {
	for slot := len(s.idx) - 1; slot >= 0; slot-- {
		switch {
		case s.pos[slot] > d:
			return false
		case s.idx[slot] != s.best[slot]:
			return s.idx[slot] > s.best[slot]
		}
	}
	return true
}

// record notes that every case extending depths < d fails, with err or
// (when err is nil) by falsifying the formula, and keeps the least of them
// if it precedes the best so far.
func (s *search) record(d int, err error) {
	if s.spare == nil {
		s.spare = make([]int, len(s.idx))
	}
	c := s.spare
	for slot := range c {
		c[slot] = 0
		if s.pos[slot] < d {
			c[slot] = s.idx[slot]
		}
	}
	if s.best != nil && !precedes(c, s.best) {
		return
	}
	s.best, s.spare, s.bestErr = c, s.best, err
}

// precedes reports whether case a comes before case b.
func precedes(a, b []int) bool {
	for slot := len(a) - 1; slot >= 0; slot-- {
		if a[slot] != b[slot] {
			return a[slot] < b[slot]
		}
	}
	return false
}

// result renders the least failing case, if any.
func (s *search) result() (*Counterexample, error) {
	if s.err != nil {
		return nil, s.err
	}
	if s.best == nil {
		return nil, nil
	}
	hist := make(trace.History, len(s.chans))
	for i, ch := range s.chans {
		hist[ch] = s.chanSeqs[i][s.best[i]]
	}
	if s.bestErr != nil {
		return nil, fmt.Errorf("assertion: evaluating %s under %s: %w", s.a, hist, s.bestErr)
	}
	assign := make(map[string]value.V, len(s.vars))
	for j, v := range s.vars {
		assign[v] = s.varVals[j][s.best[len(s.chans)+j]]
	}
	return &Counterexample{Hist: hist, Vars: assign}, nil
}

// seqCount is how many sequences of length ≤ maxLen there are over k
// values, 1 + k + … + k^maxLen, or limit+1 once that exceeds limit.
func seqCount(k, maxLen, limit int) int {
	n, pow := 1, 1
	for l := 0; l < maxLen && k > 0 && n <= limit; l++ {
		pow = min(pow*k, limit+1)
		n += pow
	}
	return min(n, limit+1)
}

// allSeqs lists the n sequences of length ≤ maxLen over alphabet, shortest
// first; n is their seqCount.
func allSeqs(alphabet []value.V, maxLen, n int) [][]value.V {
	out := make([][]value.V, 1, n)
	prev := out
	for l := 1; l <= maxLen; l++ {
		start := len(out)
		for _, s := range prev {
			for _, v := range alphabet {
				ext := make([]value.V, l)
				copy(ext, s)
				ext[l-1] = v
				out = append(out, ext)
			}
		}
		prev = out[start:]
	}
	return out
}

// concreteChans returns the channels of the assertion, failing on wildcard
// (symbolically subscripted) references which bounded validity cannot
// enumerate.
func concreteChans(a A) ([]trace.Chan, error) {
	keys := FreeChans(a)
	out := make([]trace.Chan, 0, len(keys))
	for k := range keys {
		if strings.HasSuffix(k, "[*]") {
			return nil, fmt.Errorf("assertion: symbolically subscripted channel %s; bounded validity cannot enumerate it", k)
		}
		out = append(out, trace.Chan(k))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}
