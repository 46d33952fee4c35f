package assertion

import (
	"fmt"
	"sort"
	"strings"

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
	// MaxCases caps the total number of (history, assignment) cases
	// evaluated; exceeding it is an error rather than a silent pass.
	// Zero means 1<<22.
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

// Valid exhaustively checks the assertion over all bounded histories of its
// free channels and all bounded assignments of its free variables. It
// returns nil when no counterexample exists within the bounds.
func Valid(a A, cfg ValidityConfig) (*Counterexample, error) {
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

	idxC := make([]int, len(chans))
	idxV := make([]int, len(vars))
	funcs := cfg.Funcs
	if funcs == nil {
		funcs = NewRegistry()
	}
	for {
		hist := make(trace.History, len(chans))
		for i, ch := range chans {
			hist[ch] = chanSeqs[i][idxC[i]]
		}
		ctx := NewCtx(cfg.Env, hist, funcs)
		assign := map[string]value.V{}
		for i, v := range vars {
			val := varVals[i][idxV[i]]
			ctx = ctx.Bind(v, val)
			assign[v] = val
		}
		ok, err := Eval(a, ctx)
		if err != nil {
			return nil, fmt.Errorf("assertion: evaluating %s under %s: %w", a, hist, err)
		}
		if !ok {
			return &Counterexample{Hist: hist, Vars: assign}, nil
		}
		if !advance(idxC, chanSeqs, idxV, varVals) {
			return nil, nil
		}
	}
}

// advance increments the mixed-radix counter over (channel seqs, var vals);
// it returns false when the space is exhausted.
func advance(idxC []int, chanSeqs [][][]value.V, idxV []int, varVals [][]value.V) bool {
	for i := range idxC {
		idxC[i]++
		if idxC[i] < len(chanSeqs[i]) {
			return true
		}
		idxC[i] = 0
	}
	for i := range idxV {
		idxV[i]++
		if idxV[i] < len(varVals[i]) {
			return true
		}
		idxV[i] = 0
	}
	return false
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
