// Load-generator tests live in an external test package so they can
// replay against the real serving handler (internal/server depends on
// the metamess facade, which the workload package itself must stay
// importable from).
package workload_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"metamess"
	"metamess/internal/archive"
	"metamess/internal/server"
	"metamess/internal/workload"
)

func newHandler(t *testing.T, n int, seed int64) (*httptest.Server, *archive.Manifest) {
	t.Helper()
	root := t.TempDir()
	m, err := archive.Generate(root, archive.DefaultGenConfig(n, seed))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := metamess.New(metamess.Config{ArchiveRoot: root})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Wrangle(); err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Sys: sys})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, m
}

func TestReplayAgainstServer(t *testing.T) {
	ts, m := newHandler(t, 20, 21)
	judged, err := workload.Queries(m, 10, 23, workload.DefaultRelevance(), false)
	if err != nil {
		t.Fatal(err)
	}
	var reqs []workload.HTTPRequest
	for _, j := range judged {
		body, err := json.Marshal(server.RequestFromQuery(j.Query))
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, workload.HTTPRequest{Method: http.MethodPost, URL: ts.URL + "/search", Body: body})
	}
	// Two passes over the same set. The first warms the cache: a repeat
	// of a query still in flight collapses onto it, so its headers split
	// into hit, miss and collapsed. The second starts after the first has
	// finished, so every query is already cached and every request hits.
	cold, err := workload.Replay(context.Background(), reqs, workload.LoadOptions{Concurrency: 4})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Requests != len(reqs) {
		t.Errorf("requests = %d, want %d", cold.Requests, len(reqs))
	}
	if cold.Errors != 0 {
		t.Errorf("errors = %d", cold.Errors)
	}
	if cold.QPS <= 0 || cold.DurationSec <= 0 {
		t.Errorf("throughput malformed: %+v", cold)
	}
	if cold.P50Ms <= 0 || cold.P50Ms > cold.P99Ms || cold.P99Ms > cold.MaxMs {
		t.Errorf("percentiles malformed: %+v", cold)
	}
	if collapsed := cold.CacheStates["collapsed"]; cold.CacheHits+cold.CacheMisses+collapsed != cold.Requests {
		t.Errorf("cache headers %d+%d+%d do not cover %d requests",
			cold.CacheHits, cold.CacheMisses, collapsed, cold.Requests)
	}
	warm, err := workload.Replay(context.Background(), reqs, workload.LoadOptions{Concurrency: 4})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Errors != 0 || warm.CacheHits != warm.Requests || warm.Requests != len(reqs) {
		t.Errorf("warm pass: %d hits, %d errors over %d requests, want all %d hits (cache states %v)",
			warm.CacheHits, warm.Errors, warm.Requests, len(reqs), warm.CacheStates)
	}
}

func TestReplayCountsErrors(t *testing.T) {
	ts, _ := newHandler(t, 10, 25)
	reqs := []workload.HTTPRequest{
		{Method: http.MethodGet, URL: ts.URL + "/search/text?q=with+temperature"},
		{Method: http.MethodPost, URL: ts.URL + "/search", Body: []byte("{not json")},
		{Method: http.MethodGet, URL: ts.URL + "/no/such/endpoint"},
	}
	stats, err := workload.Replay(context.Background(), reqs, workload.LoadOptions{Concurrency: 2})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Requests != 3 || stats.Errors != 2 {
		t.Errorf("requests/errors = %d/%d, want 3/2", stats.Requests, stats.Errors)
	}
}

func TestReplayHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	reqs := make([]workload.HTTPRequest, 50)
	for i := range reqs {
		reqs[i] = workload.HTTPRequest{Method: http.MethodGet, URL: "http://127.0.0.1:0/"}
	}
	if _, err := workload.Replay(ctx, reqs, workload.LoadOptions{Concurrency: 2, Timeout: time.Second}); err == nil {
		t.Error("canceled replay returned nil error")
	}
}

func TestReplayRejectsEmpty(t *testing.T) {
	if _, err := workload.Replay(context.Background(), nil, workload.LoadOptions{}); err == nil {
		t.Error("empty replay returned nil error")
	}
}
