package server

import (
	"bytes"
	"net/http"
	"time"

	"metamess/internal/obs"
)

// beginQuery builds the request's observability footprint: every search
// gets a pooled QueryObs (stage timings and shard counts always
// accumulate — they feed the histograms and the slow-query log), and a
// trace is attached when the client forces one (?debug=trace or
// X-Trace: 1) or the sampler picks the request.
func (s *Server) beginQuery(r *http.Request) *obs.QueryObs {
	qo := obs.GetQueryObs()
	if r.URL.Query().Get("debug") == "trace" || r.Header.Get("X-Trace") == "1" {
		qo.Forced = true
		qo.Trace = obs.NewTrace()
		s.metrics.tracesForced.Inc()
	} else if s.sampler.Sample() {
		qo.Trace = obs.NewTrace()
		s.metrics.tracesSampled.Inc()
	}
	if qo.Trace != nil {
		qo.Root = qo.Trace.Start(-1, "search")
	}
	return qo
}

// endQuery recycles the footprint and its trace (span trees rendered
// for the response were deep-copied by Tree, so pooling is safe).
func (s *Server) endQuery(qo *obs.QueryObs) {
	obs.ReleaseTrace(qo.Trace)
	obs.PutQueryObs(qo)
}

// noteSlow records the finished request into the slow-query log when it
// crossed the threshold, and mirrors it to the structured log. The
// fast path is one nil/threshold check.
func (s *Server) noteSlow(start time.Time, key string, gen uint64, qo *obs.QueryObs, cacheHit bool) {
	wallMs := float64(time.Since(start).Nanoseconds()) / 1e6
	if !s.slow.Slow(wallMs) {
		return
	}
	s.metrics.slowQueries.Inc()
	e := obs.SlowEntry{
		Time:       time.Now().UTC().Format(time.RFC3339),
		Query:      key,
		Generation: gen,
		WallMs:     wallMs,
		CacheHit:   cacheHit,
		Traced:     qo.Trace != nil,
		Tiers:      qo.TiersRun,
		ShardSkew:  qo.Skew(),
	}
	if len(qo.ShardCandidates) > 0 {
		e.ShardCandidates = append([]int32(nil), qo.ShardCandidates...)
	}
	for _, st := range [...]struct {
		name string
		ns   int64
	}{
		{"parse", qo.ParseNs},
		{"plan", qo.PlanNs},
		{"scatter", qo.ScatterNs},
		{"merge", qo.MergeNs},
		{"explain", qo.ExplainNs},
	} {
		if st.ns > 0 {
			e.Stages = append(e.Stages, obs.StageMs{Stage: st.name, Ms: float64(st.ns) / 1e6})
		}
	}
	s.slow.Record(e)
	s.logger.Warn("slow query",
		"query", key,
		"wallMs", wallMs,
		"generation", gen,
		"tiers", qo.TiersRun,
		"shardSkew", e.ShardSkew,
		"cacheHit", cacheHit)
}

// handleMetrics serves the Prometheus text exposition: the process-wide
// registry (catalog and core families: journal, compaction, wrangle and
// publish stages) followed by this server's own registry (HTTP, search
// stages, traces, cache, overload, pool, snapshot, durability, replica).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var buf bytes.Buffer
	obs.Default().WritePrometheus(&buf)
	s.metrics.reg.WritePrometheus(&buf)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write(buf.Bytes())
}

// SlowlogResponse is the /debug/slowlog body.
type SlowlogResponse struct {
	ThresholdMs float64         `json:"thresholdMs"`
	Count       int             `json:"count"`
	Total       uint64          `json:"total"`
	Slowest     []obs.SlowEntry `json:"slowest"`
}

func (s *Server) handleSlowlog(w http.ResponseWriter, r *http.Request) {
	entries := s.slow.Entries()
	if entries == nil {
		entries = []obs.SlowEntry{}
	}
	writeJSON(w, http.StatusOK, SlowlogResponse{
		ThresholdMs: s.slow.ThresholdMs(),
		Count:       s.slow.Len(),
		Total:       s.slow.Total(),
		Slowest:     entries,
	})
}

func (s *Server) handleWrangleTrace(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"trace": s.rew.trace()})
}
