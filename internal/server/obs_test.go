package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"
)

// metricLine matches one Prometheus text-format sample:
// name{labels} value — labels optional, value a Go float.
var metricLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? ` +
		`(-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?|\+Inf|-Inf|NaN)$`)

func TestMetricsExposition(t *testing.T) {
	sys, _, _ := newTestSystem(t, 24, 11)
	_, ts := newTestServer(t, sys, 8)

	// Exercise the read path so the stage histograms have observations.
	q := "near+46.2,-123.8+in+mid-2010+with+temperature"
	for i := 0; i < 3; i++ {
		status, _, body := get(t, ts.URL+"/search/text?q="+q)
		if status != http.StatusOK {
			t.Fatalf("search/text: %d %s", status, body)
		}
	}

	status, hdr, body := get(t, ts.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics: %d", status)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type %q", ct)
	}

	text := string(body)
	// Families the acceptance gate cares about: search stages, journal,
	// cache, pool, snapshot, slowlog, overload, ingest — every family the
	// CI smokes grep (the replica families are checked on a follower in
	// TestMetricsDurableAndReplicaFamilies). The journal/wrangle families
	// are package-registered so they exist at zero even on a non-durable
	// system.
	for _, want := range []string{
		`dnh_search_stage_duration_seconds_bucket{stage="parse",le="`,
		`dnh_search_stage_duration_seconds_bucket{stage="scatter",le="`,
		`dnh_search_stage_duration_seconds_bucket{stage="merge",le="`,
		"dnh_search_stage_duration_seconds_count",
		"dnh_journal_appends_total",
		"dnh_journal_fsyncs_total",
		"dnh_wrangle_runs_total",
		"dnh_cache_hits_total",
		"dnh_cache_misses_total",
		"dnh_search_pool_hits_total",
		"dnh_searches_total",
		"dnh_snapshot_generation",
		"dnh_http_requests_total",
		"dnh_http_request_duration_seconds_bucket",
		"dnh_slowlog_entries",
		"dnh_slow_queries_total",
		`dnh_traces_total{mode="forced"} `,
		`dnh_admission_shed_total{reason="queue_full"} 0`,
		"dnh_admission_limit 0",
		"dnh_flights_collapsed_total",
		"dnh_cache_stale_total",
		"dnh_cache_revalidations_total",
		"dnh_search_partial_total",
		"dnh_ratelimit_shed_total 0",
		"dnh_min_generation_waits_total",
		"dnh_journal_tail_total",
		"dnh_publishes_total",
		"dnh_publish_features_total",
		"dnh_publish_rejected_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The process-wide and per-server registries render back to back:
	// a family registered in both would be exposed twice.
	for line, n := range typeLines(text) {
		if n > 1 {
			t.Errorf("%q appears %d times", line, n)
		}
	}

	// Every non-comment line must be a well-formed sample.
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !metricLine.MatchString(line) {
			t.Errorf("malformed sample line: %q", line)
		}
	}

	// The repeated query parses every time (parse happens before the
	// cache lookup), so the parse histogram must have observations.
	if !regexp.MustCompile(`dnh_search_stage_duration_seconds_count\{stage="parse"\} [1-9]`).MatchString(text) {
		t.Errorf("parse stage histogram has no observations:\n%s", text)
	}
}

// typeLines counts each "# TYPE" line of an exposition.
func typeLines(text string) map[string]int {
	out := make(map[string]int)
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			out[line]++
		}
	}
	return out
}

// TestMetricsDurableAndReplicaFamilies checks that a durable leader
// exposes the durability families and a Replica server the replication
// families, each under its # TYPE.
func TestMetricsDurableAndReplicaFamilies(t *testing.T) {
	lsys, lts, _ := newDurableLeader(t, 24, 5)
	fsys, rep := newFollower(t, lts.URL, t.TempDir())
	waitForGeneration(t, fsys, lsys.SnapshotGeneration())
	fsrv, err := New(Config{Sys: fsys, Replica: rep})
	if err != nil {
		t.Fatal(err)
	}
	fts := serve(t, fsrv)

	durable := []string{
		"# TYPE dnh_journal_lag_bytes gauge",
		"# TYPE dnh_checkpoint_size_bytes gauge",
		"# TYPE dnh_store_degraded gauge",
	}
	replica := []string{
		"# TYPE dnh_replica_lag_generations gauge",
		"# TYPE dnh_replica_lag_seconds gauge",
		"# TYPE dnh_replica_applied_total counter",
		"# TYPE dnh_replica_resyncs_total counter",
		"# TYPE dnh_replica_connected gauge",
	}
	for _, c := range []struct {
		name, url     string
		want, notWant []string
	}{
		{"leader", lts.URL, durable, replica},
		{"follower", fts.URL, append(durable, replica...), nil},
	} {
		_, _, body := get(t, c.url+"/metrics")
		types := typeLines(string(body))
		for _, line := range c.want {
			if types[line] != 1 {
				t.Errorf("%s: %q appears %d times, want once", c.name, line, types[line])
			}
		}
		for _, line := range c.notWant {
			if types[line] != 0 {
				t.Errorf("%s: unexpected %q", c.name, line)
			}
		}
	}
}

// TestServersDoNotShareTelemetry runs two servers over one System: a
// forced trace on one must not show up in the other's exposition.
func TestServersDoNotShareTelemetry(t *testing.T) {
	sys, _, _ := newTestSystem(t, 24, 11)
	_, tsA := newTestServer(t, sys, 8)
	_, tsB := newTestServer(t, sys, 8)
	if status, _, body := get(t, tsA.URL+"/search/text?q=with+temperature&debug=trace"); status != http.StatusOK {
		t.Fatalf("traced search: %d %s", status, body)
	}
	_, _, a := get(t, tsA.URL+"/metrics")
	_, _, b := get(t, tsB.URL+"/metrics")
	for _, want := range []string{
		`dnh_traces_total{mode="forced"} 1`,
		`dnh_search_stage_duration_seconds_count{stage="parse"} 1`,
	} {
		if !strings.Contains(string(a), want+"\n") {
			t.Errorf("server A missing %q", want)
		}
	}
	for _, want := range []string{
		`dnh_traces_total{mode="forced"} 0`,
		`dnh_search_stage_duration_seconds_count{stage="parse"} 0`,
	} {
		if !strings.Contains(string(b), want+"\n") {
			t.Errorf("server B missing %q: A's telemetry leaked", want)
		}
	}
}

// collectStages sums the direct children's durations and returns the
// set of names seen.
func collectStages(tree *spanTreeJSON) (sum int64, names map[string]bool) {
	names = make(map[string]bool)
	for _, c := range tree.Children {
		sum += c.DurUs
		names[c.Name] = true
	}
	return sum, names
}

// spanTreeJSON mirrors obs.SpanTree for decoding responses.
type spanTreeJSON struct {
	Name     string           `json:"name"`
	StartUs  int64            `json:"startUs"`
	DurUs    int64            `json:"durUs"`
	Attrs    map[string]int64 `json:"attrs"`
	Children []*spanTreeJSON  `json:"children"`
}

func TestForcedTraceResponse(t *testing.T) {
	sys, _, _ := newTestSystem(t, 24, 13)
	_, ts := newTestServer(t, sys, 8)

	q := "near+46.2,-123.8+in+mid-2010+with+temperature"
	// Prime the cache so the traced request would hit it if it didn't
	// bypass.
	status, _, plain := get(t, ts.URL+"/search/text?q="+q)
	if status != http.StatusOK {
		t.Fatalf("untraced: %d", status)
	}

	status, hdr, body := get(t, ts.URL+"/search/text?q="+q+"&debug=trace")
	if status != http.StatusOK {
		t.Fatalf("traced: %d %s", status, body)
	}
	if c := hdr.Get("X-Dnhd-Cache"); c != "bypass" {
		t.Errorf("X-Dnhd-Cache = %q, want bypass (forced traces must not serve from cache)", c)
	}
	var resp struct {
		Generation uint64          `json:"generation"`
		Hits       json.RawMessage `json:"hits"`
		Trace      *spanTreeJSON   `json:"trace"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Trace == nil {
		t.Fatal("no trace in forced-trace response")
	}
	if resp.Trace.Name != "search" {
		t.Errorf("root span %q, want search", resp.Trace.Name)
	}
	if g, ok := resp.Trace.Attrs["generation"]; !ok || uint64(g) != resp.Generation {
		t.Errorf("root generation attr %d (present %v), response generation %d", g, ok, resp.Generation)
	}
	// Stage durations nest inside the request: the direct children are
	// sequential, so their sum can't exceed the root's duration (1µs
	// slack for rounding — each span truncates to whole microseconds).
	sum, names := collectStages(resp.Trace)
	if sum > resp.Trace.DurUs+int64(len(resp.Trace.Children)) {
		t.Errorf("child durations sum %dus > root %dus", sum, resp.Trace.DurUs)
	}
	for _, want := range []string{"parse", "scatter", "merge"} {
		if !names[want] {
			t.Errorf("trace missing %q stage (got %v)", want, names)
		}
	}

	// Tracing must not change what the client gets: same generation,
	// same hits as the untraced (cached) response.
	var plainResp struct {
		Generation uint64          `json:"generation"`
		Hits       json.RawMessage `json:"hits"`
	}
	if err := json.Unmarshal(plain, &plainResp); err != nil {
		t.Fatal(err)
	}
	if plainResp.Generation == resp.Generation && !bytes.Equal(plainResp.Hits, resp.Hits) {
		t.Errorf("traced hits differ from untraced at the same generation:\n%s\nvs\n%s", resp.Hits, plainResp.Hits)
	}

	// X-Trace: 1 is the header spelling of the same switch.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/search/text?q="+q, nil)
	req.Header.Set("X-Trace", "1")
	hresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var hbody struct {
		Trace *spanTreeJSON `json:"trace"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&hbody); err != nil {
		t.Fatal(err)
	}
	if hbody.Trace == nil {
		t.Error("X-Trace: 1 request returned no trace")
	}
}

func TestSlowlogEndpoint(t *testing.T) {
	sys, _, _ := newTestSystem(t, 24, 17)
	srv, err := New(Config{Sys: sys, CacheSize: 8, SlowThreshold: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	q := "near+46.2,-123.8+in+mid-2010+with+temperature"
	for i := 0; i < 3; i++ {
		if status, _, _ := get(t, ts.URL+"/search/text?q="+q); status != http.StatusOK {
			t.Fatalf("search: %d", status)
		}
	}

	status, _, body := get(t, ts.URL+"/debug/slowlog")
	if status != http.StatusOK {
		t.Fatalf("/debug/slowlog: %d", status)
	}
	var slow SlowlogResponse
	if err := json.Unmarshal(body, &slow); err != nil {
		t.Fatal(err)
	}
	// Every request beat a 1ns threshold.
	if slow.Count < 1 || slow.Total < 3 {
		t.Fatalf("slowlog count %d total %d, want every search logged: %s", slow.Count, slow.Total, body)
	}
	if slow.ThresholdMs <= 0 {
		t.Errorf("thresholdMs = %v, want > 0", slow.ThresholdMs)
	}
	for _, e := range slow.Slowest {
		if e.Query == "" {
			t.Errorf("slowlog entry with empty query: %+v", e)
		}
		if e.WallMs < 0 {
			t.Errorf("negative wallMs: %+v", e)
		}
	}
	// Slowest-first ordering.
	for i := 1; i < len(slow.Slowest); i++ {
		if slow.Slowest[i].WallMs > slow.Slowest[i-1].WallMs {
			t.Errorf("slowlog not sorted slowest-first at %d", i)
		}
	}

	// Disabled by negative threshold: endpoint still answers, zero
	// threshold reported.
	srv2, err := New(Config{Sys: sys, CacheSize: 8, SlowThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	t.Cleanup(ts2.Close)
	if status, _, _ := get(t, ts2.URL+"/search/text?q="+q); status != http.StatusOK {
		t.Fatalf("search: %d", status)
	}
	status, _, body = get(t, ts2.URL+"/debug/slowlog")
	if status != http.StatusOK {
		t.Fatalf("/debug/slowlog: %d", status)
	}
	if err := json.Unmarshal(body, &slow); err != nil {
		t.Fatal(err)
	}
	if slow.Count != 0 || slow.Total != 0 {
		t.Errorf("disabled slowlog recorded entries: %s", body)
	}
}
