package proof

// Batch checking: verify many independent proof trees concurrently. The
// proof rules never share mutable state — a Checker's env, funcs, and
// validity configuration are read-only during Check — so a batch is an
// embarrassingly parallel map, and the pool layer contributes cancellation
// and bounded workers. cspprove's individual-goal fallback and cspproof's
// paper-proof suite run through here.

import (
	"context"
	"sync/atomic"
	"time"

	"cspsat/internal/pool"
	"cspsat/internal/progress"
)

// Obligation is one unit of a batch: a named proof tree to verify.
type Obligation struct {
	Name  string
	Proof Proof
}

// BatchResult is the outcome for the same-index Obligation: the concluded
// claim (on success), the number of pure side conditions discharged along
// the way, and the verification error if the proof is wrong.
type BatchResult struct {
	Name       string
	Claim      Claim
	Discharged int
	Err        error
}

// Fork returns an independent Checker sharing this one's environment,
// function registry, and validity configuration, with the per-run fields
// (Log, Steps, Ctx) cleared. Forked checkers may run concurrently.
func (c *Checker) Fork() *Checker {
	return &Checker{env: c.env, funcs: c.funcs, Validity: c.Validity}
}

// CheckBatch verifies the obligations across a worker pool, each on a fork
// of the template checker. Results are indexed like the input regardless of
// completion order; an individual proof failing is recorded in its
// BatchResult, not returned as an error. The returned error is non-nil only
// when ctx was canceled, in which case unprocessed entries carry the
// cancellation error too. prog, when non-nil, receives a "prove" stage
// event per completed obligation and a final Done event.
func CheckBatch(ctx context.Context, template *Checker, obs []Obligation, workers int, prog progress.Func) ([]BatchResult, error) {
	start := time.Now()
	results := make([]BatchResult, len(obs))
	processed := make([]bool, len(obs)) // each index written once, read after the pool drains
	var done, discharged atomic.Int64
	err := pool.Run(ctx, workers, len(obs), func(i int) error {
		ck := template.Fork()
		ck.Ctx = ctx
		cl, err := ck.Check(obs[i].Proof)
		results[i] = BatchResult{Name: obs[i].Name, Claim: cl, Discharged: ck.Discharged(), Err: err}
		processed[i] = true
		prog.Emit(progress.Event{
			Stage:                 "prove",
			Items:                 int(done.Add(1)),
			Total:                 len(obs),
			ObligationsDischarged: int(discharged.Add(int64(ck.Discharged()))),
			Elapsed:               time.Since(start),
		})
		return pool.Canceled(ctx)
	})
	if err != nil {
		for i := range results {
			if !processed[i] {
				results[i] = BatchResult{Name: obs[i].Name, Err: err}
			}
		}
		return results, err
	}
	prog.Emit(progress.Event{
		Stage:                 "prove",
		Items:                 len(obs),
		Total:                 len(obs),
		ObligationsDischarged: int(discharged.Load()),
		Elapsed:               time.Since(start),
		Done:                  true,
	})
	return results, nil
}
