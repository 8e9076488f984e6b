package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The benchmark's own load driver. Unlike workload.Replay it caps
// connections at nproc per server, times open-loop requests from their
// due time (so a stall is charged to every request queued behind it),
// and counts 429, 412 and empty or malformed bodies as failures.

// client talks to one server over loopback with at most conns
// connections.
type client struct {
	base     string
	maxConns int
	hc       *http.Client
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{base: base, maxConns: conns, hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// reply is one response as the benchmark checks it.
type reply struct {
	status int
	body   []byte
	cache  string // X-Dnhd-Cache
	gen    uint64 // X-Dnhd-Generation (0 when absent)
	err    error
}

// do issues one request and reads the whole body.
func (c *client) do(ctx context.Context, method, path string, body []byte, minGen uint64) reply {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	if minGen > 0 {
		req.Header.Set("X-Min-Generation", strconv.FormatUint(minGen, 10))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	r := reply{status: resp.StatusCode, body: data, cache: resp.Header.Get("X-Dnhd-Cache"), err: err}
	r.gen, _ = strconv.ParseUint(resp.Header.Get("X-Dnhd-Generation"), 10, 64)
	return r
}

// searchReplyError reports why a search reply is a failure, or nil.
// A good reply is a 2xx whose body is a search response labeled with
// the same generation as its X-Dnhd-Generation header.
func searchReplyError(r reply) error {
	if r.err != nil {
		return r.err
	}
	if r.status < 200 || r.status > 299 {
		return fmt.Errorf("status %d: %.120s", r.status, r.body)
	}
	want := []byte(`{"generation":` + strconv.FormatUint(r.gen, 10) + `,`)
	if r.gen == 0 || !bytes.HasPrefix(r.body, want) {
		return fmt.Errorf("body does not carry generation %d: %.80s", r.gen, r.body)
	}
	return nil
}

// counts tallies outcomes of a set of operations. The zero value is
// ready; it is safe for concurrent use.
type counts struct {
	attempted, failed     atomic.Int64
	hits, collapsed, shed atomic.Int64

	mu       sync.Mutex
	firstErr []string
}

// note records one operation's outcome; err == nil is a success.
func (c *counts) note(err error) {
	c.attempted.Add(1)
	if err == nil {
		return
	}
	c.failed.Add(1)
	c.mu.Lock()
	if len(c.firstErr) < 8 {
		c.firstErr = append(c.firstErr, err.Error())
	}
	c.mu.Unlock()
}

// noteCache tallies the server's cache state and sheds for a search
// reply.
func (c *counts) noteCache(r reply) {
	switch {
	case r.status == http.StatusTooManyRequests:
		c.shed.Add(1)
	case r.cache == "hit":
		c.hits.Add(1)
	case r.cache == "collapsed":
		c.collapsed.Add(1)
	}
}

func (c *counts) errors() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.firstErr...)
}

// latencies collects per-goroutine samples and merges them.
type latencies struct {
	mu sync.Mutex
	ms []float64
}

func (l *latencies) add(xs ...float64) {
	l.mu.Lock()
	l.ms = append(l.ms, xs...)
	l.mu.Unlock()
}

func (l *latencies) values() []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]float64(nil), l.ms...)
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// closedLoop runs clients goroutines until the deadline; each calls op
// with the next stream index from seq as soon as its previous call
// returned. It returns the elapsed time.
func closedLoop(clients int, deadline time.Time, seq *atomic.Int64, op func(i int)) time.Duration {
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				op(int(seq.Add(1) - 1))
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// openLoop issues op at a fixed rate from workers goroutines until stop
// is closed. op receives the stream index and the request's due time;
// lateness (pick-up time minus due time) is recorded in late. It
// returns the elapsed time and the number of requests issued.
func openLoop(rate float64, workers int, stop <-chan struct{}, late *latencies, op func(i int, due time.Time)) (time.Duration, int) {
	type job struct {
		i   int
		due time.Time
	}
	jobs := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lates []float64
			for j := range jobs {
				lates = append(lates, msSince(j.due))
				op(j.i, j.due)
			}
			late.add(lates...)
		}()
	}
	start := time.Now()
	interval := time.Duration(float64(time.Second) / rate)
	timer := time.NewTimer(0)
	<-timer.C
	i := 0
dispatch:
	for ; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			timer.Reset(d)
			select {
			case <-timer.C:
			case <-stop:
				timer.Stop()
				break dispatch
			}
		}
		select {
		case jobs <- job{i, due}:
		case <-stop:
			break dispatch
		}
	}
	close(jobs)
	wg.Wait()
	return time.Since(start), i
}
