package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"metamess/internal/catalog"
	"metamess/internal/server"
	"metamess/internal/workload"
)

const (
	// zipfPool is the search-zipf query pool, larger than the server's
	// 512-entry cache; zipfS is its skew.
	zipfPool = 1000
	zipfS    = 1.1
	// zipfDraws is the length of the zipf index stream (it wraps).
	zipfDraws = 1 << 18
	// sampleEvery and sampleMax fix the responses the ranking gate
	// checks: stream indices 0, sampleEvery, 2*sampleEvery, ...
	sampleEvery = 8
	sampleMax   = 256
)

// stream maps a closed-loop request index to its query.
type stream func(i int) queryBody

func distinctStream(p *pools) stream {
	return func(i int) queryBody { return p.distinct[i%len(p.distinct)] }
}

func zipfStream(p *pools, seed int64) stream {
	idx := workload.ZipfIndices(zipfDraws, zipfPool, zipfS, seed)
	return func(i int) queryBody { return p.distinct[idx[i%len(idx)]] }
}

// searchRun is one closed-loop search phase, possibly run in several
// parts; the stream continues across parts.
type searchRun struct {
	ops     counts
	ms      latencies
	elapsed time.Duration
	seq     atomic.Int64

	// sampling is set while the ranking gate's samples are collected.
	sampling bool
	mu       sync.Mutex
	samples  []sample
}

type sample struct {
	q    queryBody
	body []byte
}

// run drives closed-loop POST /search requests at the leader,
// one client per connection, until the deadline.
func (sr *searchRun) run(ctx context.Context, rg *rig, next stream, deadline time.Time, tr *recorder) {
	sr.elapsed += closedLoop(rg.leaderC.maxConns, deadline, &sr.seq, func(i int) {
		q := next(i)
		id := tr.start("http.search", -1, tr.newReq())
		t0 := time.Now()
		r := rg.leaderC.do(ctx, http.MethodPost, "/search", q.body, 0)
		lat := msSince(t0)
		tr.end(id)
		err := searchReplyError(r)
		sr.ops.noteCache(r)
		sr.ops.note(err)
		if err != nil {
			return
		}
		sr.ms.add(lat)
		if sr.sampling && i%sampleEvery == 0 && i/sampleEvery < sampleMax {
			sr.mu.Lock()
			sr.samples = append(sr.samples, sample{q: q, body: r.body})
			sr.mu.Unlock()
		}
	})
}

// takeSamples returns the sampled responses so far and forgets them.
func (sr *searchRun) takeSamples() []sample {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	s := sr.samples
	sr.samples = nil
	return s
}

// warm asks every query of the n hottest zipf ranks once, from one
// client per connection, so timing starts from a filled cache.
func warm(ctx context.Context, rg *rig, p *pools, n int) error {
	n = min(n, len(p.distinct))
	var seq atomic.Int64
	var failed counts
	var wg sync.WaitGroup
	for c := 0; c < rg.leaderC.maxConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(seq.Add(1) - 1); i < n; i = int(seq.Add(1) - 1) {
				failed.note(searchReplyError(rg.leaderC.do(ctx, http.MethodPost, "/search", p.distinct[i].body, 0)))
			}
		}()
	}
	wg.Wait()
	if errs := failed.errors(); len(errs) > 0 {
		return fmt.Errorf("warm-up: %s", errs[0])
	}
	return nil
}

// checkRankings is the ranking gate, run outside the timed loop: every
// sampled response must list exactly the paths a linear-scan searcher
// ranks over the same catalog, in the same order. It returns how many
// samples it checked and the mismatches.
func checkRankings(ctx context.Context, m *mirror, gen uint64, samples []sample) (checked int, bad []error) {
	for _, s := range samples {
		checked++
		var resp server.SearchResponse
		if err := json.Unmarshal(s.body, &resp); err != nil {
			bad = append(bad, err)
			continue
		}
		want, err := m.linear.SearchContext(ctx, s.q.q.Query)
		if err != nil {
			bad = append(bad, err)
			continue
		}
		ids := workload.RankedIDs(want)
		if resp.Generation != gen || len(resp.Hits) != len(ids) {
			bad = append(bad, fmt.Errorf("response at generation %d has %d hits; oracle at %d has %d",
				resp.Generation, len(resp.Hits), gen, len(ids)))
			continue
		}
		for i, h := range resp.Hits {
			if catalog.IDForPath(h.Path) != ids[i] {
				bad = append(bad, fmt.Errorf("rank %d is %s, oracle ranks %s", i, h.Path, want[i].Feature.Path))
				break
			}
		}
	}
	return checked, bad
}
