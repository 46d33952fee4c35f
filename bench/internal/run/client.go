package run

import (
	"bytes"
	"fmt"
	"net/http"
	"sync"
	"time"

	"cspsat/bench/internal/workload"
)

// client is one closed-loop client: a single keep-alive connection, and
// the next request sent only after the previous body has been read.
type client struct {
	base string
	tr   *http.Transport
	hc   *http.Client
	buf  bytes.Buffer
}

func newClient(base string) *client {
	tr := &http.Transport{
		Proxy:               nil,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}
	return &client{base: base, tr: tr, hc: &http.Client{Transport: tr}}
}

// do sends one request and reads the whole body, returning the status and
// the latency from send to last body byte. The body stays in c.buf until
// the next call.
func (c *client) do(rq workload.Request) (int, time.Duration, error) {
	req, err := http.NewRequest("POST", c.base+rq.Path, bytes.NewReader(rq.Body))
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, 0, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	elapsed := time.Since(start)
	resp.Body.Close()
	if err != nil {
		return resp.StatusCode, elapsed, fmt.Errorf("reading %s body: %w", rq.Path, err)
	}
	return resp.StatusCode, elapsed, nil
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// sample is one timed request's client-side observation.
type sample struct {
	status  int
	latency time.Duration
	err     error
}

// runClosedLoop drives each client through its own stream concurrently
// from a common start and returns the observations per client. With a
// gauge, every gaugeEvery the clients finish the request in flight and
// wait while the gauge runs a slice.
func runClosedLoop(clients []*client, streams [][]workload.Request, g *gauge) [][]sample {
	out := make([][]sample, len(streams))
	p := newPauser(len(streams))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range streams {
		out[i] = make([]sample, len(streams[i]))
		wg.Add(1)
		go func(c *client, stream []workload.Request, obs []sample) {
			defer wg.Done()
			defer p.done()
			<-start
			for j, rq := range stream {
				p.wait()
				status, lat, err := c.do(rq)
				obs[j] = sample{status: status, latency: lat, err: err}
			}
		}(clients[i], streams[i], out[i])
	}
	finished := make(chan struct{})
	go func() {
		wg.Wait()
		close(finished)
	}()
	close(start)
	if g != nil {
		tick := time.NewTicker(gaugeEvery)
		defer tick.Stop()
		for {
			select {
			case <-finished:
				return out
			case <-tick.C:
			}
			if p.pause() {
				g.slice()
				p.resume()
			}
		}
	}
	<-finished
	return out
}

// pauser parks a closed loop's clients between requests.
type pauser struct {
	mu     sync.Mutex
	paused bool
	// parked and running count the clients waiting and those not yet
	// through their streams; changed signals a change to either, and
	// resumed the end of a pause.
	parked, running  int
	changed, resumed sync.Cond
}

func newPauser(running int) *pauser {
	p := &pauser{running: running}
	p.changed.L, p.resumed.L = &p.mu, &p.mu
	return p
}

// wait parks a client while the loop is paused.
func (p *pauser) wait() {
	p.mu.Lock()
	if p.paused {
		p.parked++
		p.changed.Signal()
		for p.paused {
			p.resumed.Wait()
		}
		p.parked--
	}
	p.mu.Unlock()
}

// done marks a client through its stream.
func (p *pauser) done() {
	p.mu.Lock()
	p.running--
	p.changed.Signal()
	p.mu.Unlock()
}

// pause waits for every running client to park. It reports false, without
// pausing, once no client is running.
func (p *pauser) pause() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.paused = true
	for p.parked < p.running {
		p.changed.Wait()
	}
	if p.running == 0 {
		p.paused = false
		return false
	}
	return true
}

// resume releases the parked clients.
func (p *pauser) resume() {
	p.mu.Lock()
	p.paused = false
	p.resumed.Broadcast()
	p.mu.Unlock()
}

// splitRoundRobin deals requests to n streams in turn.
func splitRoundRobin(reqs []workload.Request, n int) [][]workload.Request {
	out := make([][]workload.Request, n)
	for i, rq := range reqs {
		out[i%n] = append(out[i%n], rq)
	}
	return out
}
