package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"
)

// chainLabels are the mirror chain's component labels, in order.
var chainLabels = []string{
	"scan-archive", "known-transforms", "add-external-metadata", "discover-transforms",
	"perform-discovered", "known-transforms-rerun", "generate-hierarchies", "validate", "publish",
}

// ledgerRow is one layer's self time on a path.
type ledgerRow struct {
	Layer  string  `json:"layer"`
	SelfUs float64 `json:"self_us"`
	// From says how the self time was obtained: a span of its own, or
	// the difference between two spans (a layer with no span inside).
	From string `json:"from"`
}

type ledger struct {
	SearchPath      string      `json:"search_path"`
	Search          []ledgerRow `json:"search"`
	SearchE2EUs     float64     `json:"search_e2e_us"`
	SearchGapUs     float64     `json:"search_gap_us"`
	Wrangle         []ledgerRow `json:"wrangle"`
	WrangleE2EUs    float64     `json:"wrangle_e2e_us"`
	WrangleGapUs    float64     `json:"wrangle_gap_us"`
	Unexplained     []string    `json:"unexplained"`
	SearchCoverage  float64     `json:"search_coverage"`
	WrangleCoverage float64     `json:"wrangle_coverage"`
}

// traced is the traced run: the workload untraced (phase A) and traced
// (phase B) for the tracing overhead, then the layer probes (phase C)
// for the per-layer metrics. It reports per-layer metrics only.
func (b *bench) traced(work string) error {
	e, err := newEnv(work, b.seed, runtime.NumCPU())
	if err != nil {
		return err
	}
	rg, _, err := startRig(e, "rig0")
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	defer rg.close()
	p, m, w, err := b.prepare(e, rg, true)
	if err != nil {
		return err
	}
	defer m.close()
	ctx := context.Background()
	tr := newRecorder()
	phase := b.seconds / 3
	if phase < time.Second {
		phase = time.Second
	}

	var p50A, p50B float64
	var rt phaseRuntime
	var cache *counts
	var lateMs []float64
	var mixA *mixStats
	next := b.stream(p)
	if b.isSearch() {
		if b.workload == "search-zipf" {
			if err := warm(ctx, rg, p, cacheEntries); err != nil {
				return err
			}
		}
		a, bb := &searchRun{sampling: true}, &searchRun{sampling: true}
		rt = measureRuntime(func() int64 { return a.ops.attempted.Load() - a.ops.failed.Load() }, func() {
			a.run(ctx, rg, next, time.Now().Add(phase), nil)
		})
		bb.run(ctx, rg, next, time.Now().Add(phase), tr)
		gen := rg.leader.SnapshotGeneration()
		for _, r := range []*searchRun{a, bb} {
			b.account(&r.ops)
			b.gate(checkRankings(ctx, m, gen, r.takeSamples()))
		}
		p50A, p50B, cache = median(a.ms.values()), median(bb.ms.values()), &a.ops
	}
	sl, err := probeSearchLayers(ctx, rg, m, next, time.Now().Add(phase), tr)
	if err != nil {
		return err
	}
	b.account(&sl.ops)
	if err := w.settle(); err != nil {
		return err
	}
	if b.isSearch() {
		w.runMix(ctx, func(round int) bool { return round >= tracedCycles*(pushesPerChurn+1) })
		mixA = w.st
	} else {
		runPhase := func() {
			deadline := time.Now().Add(phase)
			w.runMix(ctx, func(int) bool { return !time.Now().Before(deadline) })
		}
		mixA = w.st
		rt = measureRuntime(func() int64 { return mixA.reader.attempted.Load() - mixA.reader.failed.Load() }, runPhase)
		w.st, w.tr = &mixStats{}, tr
		runPhase()
		b.account(&w.st.ops)
		b.account(&w.st.reader)
		p50A, p50B, cache = median(mixA.readerMs.values()), median(w.st.readerMs.values()), &mixA.reader
		w.tr = nil
	}
	b.account(&mixA.ops)
	b.account(&mixA.reader)
	lateMs = mixA.readerLate.values()
	compactMs := mixA.compactMs.values()
	if w.st != mixA {
		compactMs = append(compactMs, w.st.compactMs.values()...)
	}
	w.st = &mixStats{}
	if err := probeWriteLayers(ctx, w, m, layerCycles, tr); err != nil {
		return err
	}
	b.account(&w.st.ops)

	d := tr.durations()
	med := func(name string) float64 { return median(d[name]) }
	expand, rank, fac := med("search.expand"), med("search.rank"), med("metamess.search")
	miss, hit, rtHit := med("server.handler_miss"), med("server.handler_hit"), med("http.roundtrip_hit")
	for _, c := range d["catalog.compact"] {
		compactMs = append(compactMs, c/1e3)
	}
	if rg.startupCompactMs > 0 {
		compactMs = append(compactMs, rg.startupCompactMs)
	}
	searches := float64(cache.attempted.Load())

	b.set("search.expand_us", expand, "us", "")
	b.set("search.rank_us", rank, "us", "")
	b.set("search.rank_allocs", sl.rankAllocs, "count", "")
	b.set("metamess.search_us", fac, "us", "")
	b.set("metamess.search_allocs", sl.facadeAllocs, "count", "")
	b.set("metamess.render_us", fac-rank, "us", "metamess.search - search.rank")
	b.set("server.handler_miss_us", miss, "us", fmt.Sprintf("%d samples", len(d["server.handler_miss"])))
	b.set("server.handler_hit_us", hit, "us", "")
	b.set("server.cache_hit_ratio", ratio(float64(cache.hits.Load()), searches), "ratio", "")
	b.set("server.collapsed_ratio", ratio(float64(cache.collapsed.Load()), searches), "ratio", "")
	b.set("server.shed_ratio", ratio(float64(cache.shed.Load()), searches), "ratio", "")
	b.set("http.transport_us", rtHit-hit, "us", "http.roundtrip_hit - server.handler_hit")
	var chainMs float64
	for _, l := range chainLabels {
		v := med("core."+l) / 1e3
		chainMs += v
		b.set("core."+l+"_ms", v, "ms", "")
	}
	mess := median(w.st.messMs.values())
	b.set("core.mess_ms", mess, "ms", "chain run - sum of components")
	b.set("scan.stat_calls", median(w.st.statCalls.values()), "count", "")
	b.set("metamess.publish_us", med("metamess.publish"), "us", "")
	b.set("catalog.apply_delta_us", med("catalog.apply_delta"), "us", "")
	b.set("catalog.append_fsync_us", med("catalog.append_fsync"), "us", "")
	b.set("catalog.tail_ms", med("catalog.tail")/1e3, "ms", "")
	b.set("replica.apply_us", med("replica.apply"), "us", "")
	b.set("server.min_gen_wait_ms", med("server.min_gen_wait")/1e3, "ms", "")
	b.set("catalog.compact_ms", median(compactMs), "ms", fmt.Sprintf("%d compactions", len(compactMs)))
	b.set("runtime.allocs_per_search", rt.allocsPerSearch, "count", "process-wide, untraced phase")
	b.set("runtime.gc_cpu_fraction", rt.gcFraction, "ratio", "")
	b.set("loadgen.late_p99_ms", quantile(lateMs, 0.99), "ms", fmt.Sprintf("%d requests", len(lateMs)))
	b.set("trace.overhead_pct", 100*(p50B-p50A)/p50A, "%", fmt.Sprintf("traced p50 %.4f ms vs %.4f ms", p50B, p50A))

	lg := ledger{SearchE2EUs: p50A * 1e3, WrangleE2EUs: median(mixA.wrangleMs.values()) * 1e3}
	if ratio(float64(cache.hits.Load()), searches) >= 0.5 {
		lg.SearchPath = "hit"
		lg.Search = []ledgerRow{
			{"http", rtHit - hit, "difference: http.roundtrip_hit - server.handler_hit"},
			{"server", hit, "span: server.handler_hit"},
		}
	} else {
		lg.SearchPath = "miss"
		lg.Search = []ledgerRow{
			{"http", rtHit - hit, "difference: http.roundtrip_hit - server.handler_hit"},
			{"server", miss - fac, "difference: server.handler_miss - metamess.search"},
			{"metamess", fac - rank, "difference: metamess.search - search.rank"},
			{"search", rank - expand, "difference: search.rank - search.expand"},
			{"search.expand", expand, "span: search.expand"},
		}
	}
	var searchSum float64
	for _, r := range lg.Search {
		searchSum += r.SelfUs
		if strings.HasPrefix(r.From, "difference") {
			lg.Unexplained = append(lg.Unexplained, r.Layer+" (no span inside; "+r.From+")")
		}
	}
	for _, l := range chainLabels {
		lg.Wrangle = append(lg.Wrangle, ledgerRow{"core." + l, med("core." + l), "span: core." + l})
	}
	lg.Wrangle = append(lg.Wrangle, ledgerRow{"core.mess", mess * 1e3, "difference: core.run - components"})
	lg.Unexplained = append(lg.Unexplained, "core.mess (no span inside; difference: core.run - components)")
	lg.SearchGapUs = lg.SearchE2EUs - searchSum
	lg.WrangleGapUs = lg.WrangleE2EUs - (chainMs+mess)*1e3
	lg.Unexplained = append(lg.Unexplained,
		fmt.Sprintf("search end-to-end gap %.1f us (p50 under load minus the %s path's layers)", lg.SearchGapUs, lg.SearchPath),
		fmt.Sprintf("wrangle end-to-end gap %.1f us (facade Wrangle minus the mirror chain)", lg.WrangleGapUs))
	lg.SearchCoverage = ratio(searchSum, lg.SearchE2EUs)
	lg.WrangleCoverage = ratio((chainMs+mess)*1e3, lg.WrangleE2EUs)
	b.set("ledger.search_coverage", lg.SearchCoverage, "ratio", lg.SearchPath+" path")
	b.set("ledger.wrangle_coverage", lg.WrangleCoverage, "ratio", "")
	for _, u := range lg.Unexplained {
		fmt.Println("unexplained:", u)
	}

	dir := filepath.Join(b.workdir, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, b.workload+".jsonl")
	if err := tr.write(path, lg); err != nil {
		return err
	}
	fmt.Println("spans written to", path)
	return nil
}

// cpuSample reads the runtime's cumulative GC and total CPU time.
type cpuSample struct{ gc, total float64 }

func readCPU() cpuSample {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return cpuSample{gc: s[0].Value.Float64(), total: s[1].Value.Float64()}
}

// mallocs is the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// phaseRuntime is the runtime cost of one untraced phase.
type phaseRuntime struct {
	allocsPerSearch, gcFraction float64
}

// measureRuntime runs fn and reports the process's mallocs per
// successful search and the GC share of CPU time over it.
func measureRuntime(searches func() int64, fn func()) phaseRuntime {
	c0, m0 := readCPU(), mallocs()
	fn()
	c1, m1 := readCPU(), mallocs()
	return phaseRuntime{
		allocsPerSearch: ratio(float64(m1-m0), float64(searches())),
		gcFraction:      ratio(c1.gc-c0.gc, c1.total-c0.total),
	}
}
