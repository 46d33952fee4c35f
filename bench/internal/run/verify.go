package run

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"

	"cspsat/bench/internal/workload"
	"cspsat/internal/journal"
	"cspsat/internal/server"
)

// maxProblems bounds how many problem lines a pass reports.
const maxProblems = 8

// Outcome is the correctness side of one pass: how many requests were
// attempted, how many failed (wrong status, transport error, or a digest
// that disagrees with a golden, a reference, or an earlier answer to the
// same request), and the answers seen, by request key.
type Outcome struct {
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Problems  []string `json:"problems,omitempty"`
	// OutputDigest is SHA-256 over the timed requests' answer digests in
	// (client, sequence) order.
	OutputDigest string `json:"output_digest"`
	// Answers maps request keys to the answer each got.
	Answers map[string]workload.Answer `json:"answers,omitempty"`
}

func (o *Outcome) problem(format string, args ...any) {
	o.Failed++
	if len(o.Problems) < maxProblems {
		o.Problems = append(o.Problems, fmt.Sprintf(format, args...))
	}
}

// journalAnswers reads the one journal file in dir and groups the answers
// by request key. Every answer to a key must agree: a repeat of a request
// must reproduce its first answer, and the setup pass's cold answer must
// equal the cached one.
func journalAnswers(dir string, o *Outcome) (map[string]workload.Answer, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.cspj"))
	if err != nil || len(files) != 1 {
		return nil, fmt.Errorf("want one journal in %s, found %d (%v)", dir, len(files), err)
	}
	res, err := journal.ReadFile(files[0])
	if err != nil {
		return nil, err
	}
	if res.Torn {
		return nil, fmt.Errorf("journal %s has a torn tail: %v", files[0], res.TornErr)
	}
	answers := map[string]workload.Answer{}
	for _, rec := range res.Records {
		key := workload.KeyOf(rec.Path, rec.Request)
		a := workload.Answer{Status: rec.Status, Digest: rec.RespDigest}
		if first, ok := answers[key]; !ok {
			answers[key] = a
		} else if first != a {
			o.problem("%s %.12s: answer %d/%.12s differs from first answer %d/%.12s", rec.Path, key, a.Status, a.Digest, first.Status, first.Digest)
		}
	}
	return answers, nil
}

// check verifies every timed request's observation against the answers
// seen and everything known in advance: the expected status, the
// fixture's precomputed digests, the goldens' class answers (any seed) and
// prefix answers (the golden seed only). It fills o.Attempted,
// o.OutputDigest and o.Answers.
func check(fx *workload.Fixture, g *workload.Golden, streams [][]workload.Request, obs [][]sample, answers map[string]workload.Answer, o *Outcome) {
	h := sha256.New()
	o.Answers = map[string]workload.Answer{}
	for c, stream := range streams {
		for i, rq := range stream {
			o.Attempted++
			s := obs[c][i]
			if s.err != nil {
				o.problem("client %d request %d %s: %v", c, i, rq.Path, s.err)
				continue
			}
			if s.status != rq.Status {
				o.problem("client %d request %d %s %s: status %d, want %d", c, i, rq.Path, rq.Class, s.status, rq.Status)
				continue
			}
			a, ok := answers[rq.Key]
			if !ok {
				o.problem("client %d request %d %s: answer missing from the journal", c, i, rq.Path)
				continue
			}
			o.Answers[rq.Key] = a
			h.Write([]byte(a.Digest))
			if want, ok := expected(fx, g, c, i, rq); ok && want != a {
				o.problem("client %d request %d %s %s: answer %d/%.12s, want %d/%.12s", c, i, rq.Path, rq.Class, a.Status, a.Digest, want.Status, want.Digest)
			}
		}
	}
	o.OutputDigest = hex.EncodeToString(h.Sum(nil))
}

// expected returns the answer request i of client c must get, when one is
// known before the run.
func expected(fx *workload.Fixture, g *workload.Golden, c, i int, rq workload.Request) (workload.Answer, bool) {
	if d, ok := fx.Expected[rq.Key]; ok {
		return workload.Answer{Status: rq.Status, Digest: d}, true
	}
	if g == nil {
		return workload.Answer{}, false
	}
	if rq.Class != "" {
		a, ok := g.Classes[rq.Class]
		return a, ok
	}
	if fx.Seed == g.Seed && c < len(g.Prefix) && i < len(g.Prefix[c]) {
		return g.Prefix[c][i], true
	}
	return workload.Answer{}, false
}

// checkReference re-computes the fixture's reference requests and sampled
// fresh-specs sessions on a fresh storeless server after the run, and
// demands the run's answers match. Sessions must also satisfy the
// consistency theorem: the op and denotational listings are equal, and
// main ⊑T weak holds.
func checkReference(fx *workload.Fixture, answers map[string]workload.Answer, o *Outcome) {
	ref := server.New(server.Config{})
	serve := func(rq workload.Request) []byte {
		rec := httptest.NewRecorder()
		ref.Handler().ServeHTTP(rec, httptest.NewRequest("POST", rq.Path, bytes.NewReader(rq.Body)))
		body := rec.Body.Bytes()
		want := workload.Answer{Status: rec.Code, Digest: journal.Digest(body)}
		if got, ok := answers[rq.Key]; ok && got != want {
			o.problem("%s %.12s: answer %d/%.12s, reference %d/%.12s", rq.Path, rq.Key, got.Status, got.Digest, want.Status, want.Digest)
		}
		return body
	}
	for _, rq := range fx.Reference {
		serve(rq)
	}
	for _, s := range fx.Sessions {
		var op, den struct {
			Traces json.RawMessage `json:"traces"`
		}
		var refine struct {
			OK bool `json:"ok"`
		}
		if json.Unmarshal(serve(s.Op), &op) != nil || json.Unmarshal(serve(s.Denote), &den) != nil || json.Unmarshal(serve(s.Refine), &refine) != nil {
			o.problem("session %.12s: undecodable reference answer", s.Op.Key)
			continue
		}
		if !sameListing(op.Traces, den.Traces) {
			o.problem("session %.12s: op and denotational trace listings differ", s.Op.Key)
		}
		if !refine.OK {
			o.problem("session %.12s: main does not trace-refine main |~| STOP", s.Refine.Key)
		}
	}
}

// sameListing compares two trace-set encodings on everything but the
// engine-specific fields.
func sameListing(a, b json.RawMessage) bool {
	var x, y map[string]any
	if json.Unmarshal(a, &x) != nil || json.Unmarshal(b, &y) != nil {
		return false
	}
	for _, m := range []map[string]any{x, y} {
		delete(m, "engine")
		delete(m, "iterations")
	}
	return reflect.DeepEqual(x, y)
}

// tempDir makes a scratch directory under the system temp dir.
func tempDir(pattern string) (string, func(), error) {
	dir, err := os.MkdirTemp("", pattern)
	if err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}
