package run

// Reported is one metric in a run's result line.
type Reported struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the JSON object a benchmark run prints as its last line.
type Result struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]Reported `json:"metrics"`
}

// NewResult reports every metric of list from values.
func NewResult(list []Metric, values map[string]float64, attempted, failed int) Result {
	r := Result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]Reported{}}
	for _, m := range list {
		r.Metrics[m.Name] = Reported{Value: values[m.Name], Unit: m.Unit}
	}
	return r
}

// MirrorMatches checks the traced pass's mirror against the untraced
// pass's server: every request both answered must have the same answer,
// which proves the mirror does the server's work. Disagreements are
// recorded in o.
func MirrorMatches(s *Single, t *Traced, o *Outcome) {
	for key, got := range t.Answers {
		if want, ok := s.Answers[key]; ok && got != want {
			o.problem("mirror answer %d/%.12s for %.12s, server answered %d/%.12s", got.Status, got.Digest, key, want.Status, want.Digest)
		}
	}
}
