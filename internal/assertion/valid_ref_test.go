package assertion

import (
	"fmt"
	"sort"

	"cspsat/internal/trace"
	"cspsat/internal/value"
)

// validRef is the exhaustive enumeration that Valid replaced: every case in
// mixed-radix order, the first channel varying fastest and the last
// variable slowest, stopping at the first case that fails or errs. Valid
// must report the same verdict, counterexample and error text on every
// obligation (TestValidMatchesReference, FuzzValid).
func validRef(a A, cfg ValidityConfig) (*Counterexample, error) {
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
