package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"metamess"
	"metamess/internal/scan"
	"metamess/internal/search"
	"metamess/internal/server"
)

// The layer probes of the traced run. Each call into a layer is timed
// from the benchmark's side: the search path through a mirror searcher,
// the facade, a shadow server's handler and its loopback socket; the
// write path through the mirror's timed chain, the facade's publish,
// the journal tail and a shadow follower's apply.

// facadeQuery converts a search query into the facade's query.
func facadeQuery(q search.Query) metamess.Query {
	fq := metamess.Query{K: q.K}
	if q.Location != nil {
		fq.Near = &metamess.LatLon{Lat: q.Location.Lat, Lon: q.Location.Lon}
	}
	if q.Time != nil {
		fq.From, fq.To = q.Time.Start, q.Time.End
	}
	for _, t := range q.Terms {
		v := metamess.VariableTerm{Name: t.Name}
		if t.Range != nil {
			lo, hi := t.Range.Min, t.Range.Max
			v.Min, v.Max = &lo, &hi
		}
		fq.Variables = append(fq.Variables, v)
	}
	return fq
}

// allocsPer reports heap allocations per call of fn over n calls, on
// the calling goroutine while nothing else runs.
func allocsPer(n int, fn func(i int)) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// searchLayers holds what the search probes measure besides spans.
type searchLayers struct {
	rankAllocs, facadeAllocs float64
	ops                      counts
}

// probeSearchLayers runs the workload's query stream through each
// search layer in turn, from clients goroutines, until the deadline.
func probeSearchLayers(ctx context.Context, rg *rig, m *mirror, next stream, deadline time.Time, tr *recorder) (*searchLayers, error) {
	shadow, err := server.New(server.Config{Sys: rg.leader})
	if err != nil {
		return nil, err
	}
	addr, err := shadow.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shadow.Shutdown(sctx)
	}()
	sc := newClient("http://"+addr.String(), rg.leaderC.maxConns)
	defer sc.close()
	handler := shadow.Handler()

	sl := &searchLayers{}
	const allocN = 200
	sl.rankAllocs = allocsPer(allocN, func(i int) { m.indexed.SearchContext(ctx, next(i).q.Query) })
	sl.facadeAllocs = allocsPer(allocN, func(i int) { rg.leader.SearchContext(ctx, facadeQuery(next(i).q.Query)) })

	var seq atomic.Int64
	closedLoop(rg.leaderC.maxConns, deadline, &seq, func(i int) {
		q := next(i)
		req := tr.newReq()
		root := tr.start("probe.search", -1, req)
		defer tr.end(root)
		tr.time("search.expand", root, req, func() {
			for _, t := range q.q.Query.Terms {
				m.expander.Expand(t.Name)
			}
		})
		var err error
		tr.time("search.rank", root, req, func() { _, err = m.indexed.SearchContext(ctx, q.q.Query) })
		if err == nil {
			tr.time("metamess.search", root, req, func() { _, err = rg.leader.SearchContext(ctx, facadeQuery(q.q.Query)) })
		}
		if err != nil {
			sl.ops.note(err)
			return
		}
		// The first handler call misses unless the query was asked
		// recently; the second always hits.
		t0 := time.Now()
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, newSearchRequest(q.body, 0))
		name := "server.handler_miss"
		if rec.Header().Get("X-Dnhd-Cache") == "hit" {
			name = "server.handler_hit"
		}
		tr.add(name, root, req, t0, time.Now())
		rec = httptest.NewRecorder()
		tr.time("server.handler_hit", root, req, func() { handler.ServeHTTP(rec, newSearchRequest(q.body, 0)) })
		if rec.Code != http.StatusOK || rec.Header().Get("X-Dnhd-Cache") != "hit" {
			sl.ops.note(fmt.Errorf("shadow handler repeat: status %d, cache %q", rec.Code, rec.Header().Get("X-Dnhd-Cache")))
			return
		}
		var r reply
		tr.time("http.roundtrip_hit", root, req, func() { r = sc.do(ctx, http.MethodPost, "/search", q.body, 0) })
		if err := searchReplyError(r); err != nil || r.cache != "hit" {
			sl.ops.note(fmt.Errorf("shadow loopback repeat: cache %q: %v", r.cache, err))
			return
		}
		sl.ops.note(nil)
	})
	return sl, nil
}

// probeWriteLayers runs cycles of the writer's rounds sequentially,
// without client load (the follower keeps tailing), timing each
// write-path layer: the facade's Wrangle and PublishFeatures, the
// follower's X-Min-Generation wait, the mirror's chain components, its
// ApplyDelta and journal append, the leader's journal tail, a shadow
// follower's apply, and compaction.
func probeWriteLayers(ctx context.Context, w *writer, m *mirror, cycles int, tr *recorder) error {
	leader := w.rg.leader
	shadow, err := metamess.New(metamess.Config{
		ArchiveRoot: filepath.Join(w.rg.dir, "shadow-archive"),
		DataDir:     filepath.Join(w.rg.dir, "shadow"),
		SyncPolicy:  syncPolicy,
	})
	if err != nil {
		return err
	}
	defer shadow.Close()
	catchUp := func(req int64, root int32) error {
		for shadow.SnapshotGeneration() < leader.SnapshotGeneration() {
			var frames []byte
			var resync bool
			var err error
			tr.time("catalog.tail", root, req, func() {
				frames, _, resync, err = leader.JournalTail(shadow.SnapshotGeneration(), 0)
			})
			if err != nil {
				return err
			}
			if resync {
				rc, err := leader.CheckpointReader()
				if err != nil {
					return err
				}
				_, err = shadow.BootstrapFromCheckpoint(rc)
				rc.Close()
				if err != nil {
					return err
				}
				continue
			}
			tr.time("replica.apply", root, req, func() { _, err = shadow.ApplyReplicatedFrames(frames) })
			if err != nil {
				return err
			}
		}
		return nil
	}
	// Bring the shadow follower and the mirror up to the leader's state
	// untimed: the mirror has not wrangled since set-up.
	if err := catchUp(0, -1); err != nil {
		return err
	}
	if _, _, err := m.run(); err != nil {
		return err
	}
	followerHandler := w.rg.fsrv.Handler()
	minGenWait := func(gen uint64, root int32, req int64) {
		// A query-less text search that demands gen: the follower holds
		// it in the generation wait, then rejects it (400) without
		// searching, so the call's duration is the wait.
		r := httptest.NewRequest(http.MethodGet, "/search/text", nil)
		r.Header.Set("X-Min-Generation", fmt.Sprint(gen))
		rec := httptest.NewRecorder()
		tr.time("server.min_gen_wait", root, req, func() { followerHandler.ServeHTTP(rec, r) })
		if rec.Code != http.StatusBadRequest {
			w.st.ops.note(fmt.Errorf("follower generation wait answered %d", rec.Code))
		}
	}
	m.tr = tr
	defer func() { m.tr = nil }()
	for round := 0; round < cycles*(pushesPerChurn+1); round++ {
		req := tr.newReq()
		root := tr.start("probe.write", -1, req)
		m.span, m.req = root, req
		if round%(pushesPerChurn+1) == 0 {
			if _, err := w.churn(churnFiles); err != nil {
				return err
			}
			s0 := scan.StatCalls()
			var rep *metamess.Report
			tr.time("metamess.wrangle", root, req, func() { rep, err = leader.Wrangle() })
			if err != nil {
				return err
			}
			w.st.statCalls.add(float64(scan.StatCalls() - s0))
			w.st.ops.note(w.checkWrangle(rep))
			minGenWait(w.lastGen, root, req)
			run := tr.start("core.run", root, req)
			m.span = run
			total, comps, err := m.run()
			tr.end(run)
			m.span = root
			if err != nil {
				return err
			}
			w.st.messMs.add(float64((total - comps).Nanoseconds()) / 1e6)
			if err := catchUp(req, root); err != nil {
				return err
			}
			t0 := time.Now()
			done, err := leader.CompactIfNeeded()
			if err != nil {
				return err
			}
			if done {
				tr.add("catalog.compact", root, req, t0, time.Now())
			}
		} else {
			body := w.p.pushes[w.nextPush%len(w.p.pushes)]
			w.nextPush++
			preq, err := metamess.DecodePublishRequest(body)
			if err != nil {
				return err
			}
			var rc metamess.PublishReceipt
			tr.time("metamess.publish", root, req, func() { rc, err = leader.PublishFeatures(preq) })
			if err != nil {
				return err
			}
			w.st.ops.note(w.checkReceipt(rc))
			minGenWait(rc.Generation, root, req)
			mreq, err := metamess.DecodePublishRequest(body)
			if err != nil {
				return err
			}
			if err := m.publish(mreq); err != nil {
				return err
			}
			if err := catchUp(req, root); err != nil {
				return err
			}
		}
		tr.end(root)
	}
	return w.rg.awaitFollower(w.lastGen, time.Minute)
}

// newSearchRequest builds an in-process POST /search request.
func newSearchRequest(body []byte, minGen uint64) *http.Request {
	req, _ := http.NewRequest(http.MethodPost, "/search", bytes.NewReader(body))
	req.RemoteAddr = "127.0.0.1:1"
	if minGen > 0 {
		req.Header.Set("X-Min-Generation", fmt.Sprint(minGen))
	}
	return req
}
