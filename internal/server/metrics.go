package server

import (
	"strconv"
	"time"

	"metamess"
	"metamess/internal/obs"
	"metamess/internal/search"
)

// serveMetrics is the server's telemetry: every instrument a Server
// owns, registered in the Server's own obs.Registry, so servers sharing
// a process never cross counters. GET /metrics renders it after the
// process-wide obs.Default() (catalog and core families), and /stats
// reads the same instruments. It measures the serving layer itself and
// is distinct from internal/metrics, which scores IR quality
// (precision/recall) offline. Endpoints are registered once at
// construction, so the hot path is a map read plus atomic adds.
type serveMetrics struct {
	reg       *obs.Registry
	start     time.Time
	inFlight  *obs.Gauge
	cacheHits *obs.Counter
	cacheMiss *obs.Counter
	// searchesRun counts searches actually executed against the catalog
	// (cache hits excluded) — the denominator for /stats' approximate
	// per-search allocation figures.
	searchesRun *obs.Counter
	// Overload counters: follower responses served from a collapsed
	// flight, previous-generation bytes served during the stale window,
	// background cache warms started, and deadline-expired partial
	// responses. Admission sheds are counted by the gate itself.
	collapsed     *obs.Counter
	staleServed   *obs.Counter
	revalidations *obs.Counter
	partials      *obs.Counter
	// ratelimitShed counts requests refused by the per-client token
	// bucket — before the admission gate, so they never count as sheds.
	ratelimitShed *obs.Counter
	// Read-your-writes counters: searches that waited for X-Min-Generation
	// to arrive, and waits that expired into a 412.
	minGenWaits *obs.Counter
	minGenStale *obs.Counter
	// tailsServed counts journal tail responses served to followers.
	tailsServed *obs.Counter
	// Push-ingest counters: accepted publishes (and how many arrived as
	// generation-stable replays), plus batches rejected before any state
	// change — malformed bodies, invalid features, validation errors.
	publishes        *obs.Counter
	publishStable    *obs.Counter
	publishRejected  *obs.Counter
	publishFeaturesN *obs.Counter
	// Read-path stage histograms, fed from each executed query's
	// obs.QueryObs footprint after the search returns — the executor
	// only accumulates nanosecond counters, so the search hot path never
	// touches the registry.
	stageParse, stagePlan, stageScatter, stageMerge, stageExplain *obs.Histogram
	// Traced requests by mode (client-forced or sampled), and queries at
	// or past the slow-query threshold.
	tracesForced, tracesSampled, slowQueries *obs.Counter

	endpoints map[string]*endpointMetrics
	names     []string // registration order, for stable /stats output
}

// latencyBucketsMs are the endpoint latency bounds in milliseconds (the
// /stats unit); an implicit +Inf bucket catches the rest. The histogram
// itself observes seconds, the exposition unit.
var latencyBucketsMs = []float64{0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000}

type endpointMetrics struct {
	requests *obs.Counter
	errors   *obs.Counter // responses with status >= 400
	latency  *obs.Histogram
}

func newServeMetrics(endpoints []string) *serveMetrics {
	reg := obs.NewRegistry()
	stage := func(name string) *obs.Histogram {
		return reg.Histogram("dnh_search_stage_duration_seconds",
			"Search stage wall time in seconds.", obs.DurationBuckets, "stage", name)
	}
	m := &serveMetrics{
		reg:              reg,
		start:            time.Now(),
		inFlight:         reg.Gauge("dnh_http_in_flight", "Requests currently being served."),
		cacheHits:        reg.Counter("dnh_cache_hits_total", "Query-cache hits."),
		cacheMiss:        reg.Counter("dnh_cache_misses_total", "Query-cache misses."),
		searchesRun:      reg.Counter("dnh_searches_total", "Searches executed against the catalog (cache hits excluded)."),
		collapsed:        reg.Counter("dnh_flights_collapsed_total", "Follower responses served from a singleflight leader's bytes."),
		staleServed:      reg.Counter("dnh_cache_stale_total", "Previous-generation cache bytes served during the stale window."),
		revalidations:    reg.Counter("dnh_cache_revalidations_total", "Background flights warming the new generation after a publish."),
		partials:         reg.Counter("dnh_search_partial_total", "Deadline-expired searches answered with partial results."),
		ratelimitShed:    reg.Counter("dnh_ratelimit_shed_total", "Search requests refused by the per-client rate limit."),
		minGenWaits:      reg.Counter("dnh_min_generation_waits_total", "Searches that waited for an X-Min-Generation to publish."),
		minGenStale:      reg.Counter("dnh_min_generation_stale_total", "X-Min-Generation waits that expired into 412."),
		tailsServed:      reg.Counter("dnh_journal_tail_total", "Journal tail responses served to followers."),
		publishes:        reg.Counter("dnh_publishes_total", "Accepted push publishes."),
		publishStable:    reg.Counter("dnh_publishes_stable_total", "Accepted publishes whose delta was empty (generation unchanged)."),
		publishRejected:  reg.Counter("dnh_publish_rejected_total", "Publish batches refused with no state change."),
		publishFeaturesN: reg.Counter("dnh_publish_features_total", "Features upserted through push publishes."),
		stageParse:       stage("parse"),
		stagePlan:        stage("plan"),
		stageScatter:     stage("scatter"),
		stageMerge:       stage("merge"),
		stageExplain:     stage("explain"),
		tracesForced:     reg.Counter("dnh_traces_total", "Traced requests by mode.", "mode", "forced"),
		tracesSampled:    reg.Counter("dnh_traces_total", "Traced requests by mode.", "mode", "sampled"),
		slowQueries:      reg.Counter("dnh_slow_queries_total", "Queries at or above the slow-query threshold."),
		endpoints:        make(map[string]*endpointMetrics, len(endpoints)),
		names:            endpoints,
	}
	bounds := make([]float64, len(latencyBucketsMs))
	for i, ms := range latencyBucketsMs {
		bounds[i] = ms / 1000
	}
	for _, name := range endpoints {
		m.endpoints[name] = &endpointMetrics{
			requests: reg.Counter("dnh_http_requests_total", "HTTP requests by endpoint.", "endpoint", name),
			errors:   reg.Counter("dnh_http_request_errors_total", "HTTP responses with status >= 400 by endpoint.", "endpoint", name),
			latency:  reg.Histogram("dnh_http_request_duration_seconds", "HTTP request latency by endpoint.", bounds, "endpoint", name),
		}
	}
	return m
}

// registerCallbacks registers the callback instruments: values owned
// elsewhere (cache, admission gate, rate limiter, snapshot, durable
// store, replicator, slow-query log), read at exposition time. The
// overload families are registered (at zero) even when admission is
// disabled, so dashboards and alerts can be written before the first
// incident; the durability and replica families exist only on servers
// that have a store or follow a leader.
func (s *Server) registerCallbacks() {
	reg := s.metrics.reg
	gate := s.adm
	if gate == nil {
		gate = &admission{} // admission disabled: every gate figure reads 0
	}
	for _, g := range []struct {
		name, help string
		fn         func() float64
	}{
		{"dnh_uptime_seconds", "Seconds since the server started.", func() float64 { return time.Since(s.metrics.start).Seconds() }},
		{"dnh_cache_entries", "Query-cache resident entries.", func() float64 { return float64(s.cache.Len()) }},
		{"dnh_admission_in_flight", "Searches holding an admission slot.", func() float64 { return float64(gate.inFlight()) }},
		{"dnh_admission_queued", "Searches waiting for an admission slot.", func() float64 { return float64(gate.queued.Load()) }},
		{"dnh_admission_limit", "Configured in-flight search limit (0 = unlimited).", func() float64 { return float64(gate.max) }},
		{"dnh_ratelimit_clients", "Clients with a resident rate-limit bucket.", func() float64 { return float64(s.limiter.clients()) }},
		{"dnh_snapshot_generation", "Published snapshot generation.", func() float64 { return float64(s.sys.SnapshotGeneration()) }},
		{"dnh_datasets", "Datasets in the published catalog.", func() float64 { return float64(s.sys.DatasetCount()) }},
		{"dnh_slowlog_entries", "Slow-query log resident entries.", func() float64 { return float64(s.slow.Len()) }},
	} {
		reg.GaugeFunc(g.name, g.help, g.fn)
	}
	const shedHelp = "Search requests shed with 429, by reason."
	reg.CounterFunc("dnh_admission_shed_total", shedHelp, gate.shedFull.Load, "reason", "queue_full")
	reg.CounterFunc("dnh_admission_shed_total", shedHelp, gate.shedTimeout.Load, "reason", "wait_timeout")
	reg.CounterFunc("dnh_admission_shed_total", shedHelp, gate.shedClient.Load, "reason", "client_gone")
	reg.CounterFunc("dnh_search_pool_hits_total", "Query-scratch pool reuses.", func() uint64 {
		hits, _ := search.PoolStats()
		return hits
	})
	reg.CounterFunc("dnh_search_pool_misses_total", "Query-scratch pool fresh allocations.", func() uint64 {
		_, misses := search.PoolStats()
		return misses
	})
	// A catalog's shard count is fixed for its lifetime, so the shard
	// label set is registered once.
	for i := range s.sys.SnapshotShardSizes() {
		reg.GaugeFunc("dnh_snapshot_shard_features", "Features per snapshot shard.", func() float64 {
			if sizes := s.sys.SnapshotShardSizes(); i < len(sizes) {
				return float64(sizes[i])
			}
			return 0
		}, "shard", strconv.Itoa(i))
	}

	if _, ok := s.sys.Durability(); ok {
		// Journal bytes since the last checkpoint are exactly the warm
		// restart's replay backlog — the lag a replica would have to
		// catch up.
		durability := func() metamess.DurabilityStats {
			ds, _ := s.sys.Durability()
			return ds
		}
		reg.GaugeFunc("dnh_journal_lag_bytes", "Journal bytes not yet folded into the checkpoint (replay backlog).",
			func() float64 { return float64(durability().JournalBytes) })
		reg.GaugeFunc("dnh_checkpoint_size_bytes", "Checkpoint size on disk.",
			func() float64 { return float64(durability().CheckpointBytes) })
		reg.GaugeFunc("dnh_store_degraded", "1 while the durable store refuses appends after a journal error.",
			func() float64 { return flag(durability().Degraded) })
	}

	if rep := s.replica; rep != nil {
		reg.GaugeFunc("dnh_replica_lag_generations", "Generations this follower is behind its leader.",
			func() float64 { return float64(rep.Stats().LagGenerations) })
		reg.GaugeFunc("dnh_replica_lag_seconds", "Seconds since this follower was last caught up.",
			func() float64 { return rep.Stats().LagSeconds })
		reg.CounterFunc("dnh_replica_applied_total", "Replicated records applied from the leader's journal.",
			func() uint64 { return rep.Stats().AppliedRecords })
		reg.CounterFunc("dnh_replica_resyncs_total", "Checkpoint bootstraps after falling behind the journals.",
			func() uint64 { return rep.Stats().Resyncs })
		reg.GaugeFunc("dnh_replica_connected", "1 while the last leader exchange succeeded.",
			func() float64 { return flag(rep.Stats().Connected) })
	}
}

// flag renders a boolean as a 0/1 gauge value.
func flag(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// observe records one finished request.
func (m *serveMetrics) observe(endpoint string, status int, d time.Duration) {
	e := m.endpoints[endpoint]
	if e == nil {
		e = m.endpoints[endpointOther]
	}
	e.requests.Inc()
	if status >= 400 {
		e.errors.Inc()
	}
	e.latency.Observe(d.Seconds())
}

// observeStages feeds one executed search's stage timings into the
// histograms. Parse is observed separately (once per request, not per
// generation-race attempt).
func (m *serveMetrics) observeStages(qo *obs.QueryObs) {
	m.stagePlan.ObserveSeconds(qo.PlanNs)
	m.stageScatter.ObserveSeconds(qo.ScatterNs)
	m.stageMerge.ObserveSeconds(qo.MergeNs)
	m.stageExplain.ObserveSeconds(qo.ExplainNs)
}

// EndpointStats is one endpoint's row in the /stats response.
type EndpointStats struct {
	Endpoint string  `json:"endpoint"`
	Requests uint64  `json:"requests"`
	Errors   uint64  `json:"errors"`
	MeanMs   float64 `json:"meanMs"`
	P50Ms    float64 `json:"p50Ms"`
	P90Ms    float64 `json:"p90Ms"`
	P99Ms    float64 `json:"p99Ms"`
	// Buckets is the cumulative latency histogram: Buckets[i] requests
	// finished within latencyBucketsMs[i] (last entry = all).
	Buckets []uint64 `json:"buckets"`
}

// CacheStats reports query-cache effectiveness. Stale counts
// previous-generation bytes served during the stale-while-revalidate
// window (not part of the hit/miss ratio: a stale serve is a miss at
// the current generation answered from the previous one).
type CacheStats struct {
	Hits    uint64  `json:"hits"`
	Misses  uint64  `json:"misses"`
	Entries int     `json:"entries"`
	HitRate float64 `json:"hitRate"`
	Stale   uint64  `json:"stale"`
}

// snapshotEndpoints renders the per-endpoint rows.
func (m *serveMetrics) snapshotEndpoints() []EndpointStats {
	out := make([]EndpointStats, 0, len(m.names))
	for _, name := range m.names {
		e := m.endpoints[name]
		n := e.requests.Value()
		counts := e.latency.Cumulative()
		row := EndpointStats{Endpoint: name, Requests: n, Errors: e.errors.Value(), Buckets: counts}
		if n > 0 {
			row.MeanMs = e.latency.Sum() * 1000 / float64(n)
			row.P50Ms = bucketQuantile(counts, 0.50)
			row.P90Ms = bucketQuantile(counts, 0.90)
			row.P99Ms = bucketQuantile(counts, 0.99)
		}
		out = append(out, row)
	}
	return out
}

// bucketQuantile estimates a quantile from a cumulative histogram,
// reporting the upper bound of the bucket holding the q-th request
// (the conservative convention Prometheus uses without interpolation).
func bucketQuantile(cumulative []uint64, q float64) float64 {
	total := cumulative[len(cumulative)-1]
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank < 1 {
		rank = 1
	}
	for i, c := range cumulative {
		if c >= rank {
			if i < len(latencyBucketsMs) {
				return latencyBucketsMs[i]
			}
			return latencyBucketsMs[len(latencyBucketsMs)-1] * 2 // +Inf bucket
		}
	}
	return latencyBucketsMs[len(latencyBucketsMs)-1] * 2
}
