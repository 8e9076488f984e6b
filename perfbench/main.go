// Command perfbench is the repository's benchmark: it self-hosts the
// Data Near Here stack in one process (a durable leader behind a
// server, and a durable follower tailing it behind its own server),
// drives one seeded workload against it, checks every answer, and
// prints the end-to-end metrics (-trace 0) or the per-layer metrics of
// a separate traced run (-trace 1). The last line of standard output is
// the JSON result. See README.md for the metrics and workloads.
//
//	bash perfbench/run.sh --workload search-distinct --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

const (
	// setupRuns is how many times an untraced run sets the stack up;
	// setup_s is their median and the last one serves the workload.
	setupRuns = 3
	// searchParts shapes a search workload's run: it comes in
	// searchParts parts, each a stretch of searching followed by whole
	// writer cycles (one churn round and pushesPerChurn push rounds
	// each).
	searchParts = 8
	// cycleTime is a writer cycle's rough duration on a 2-vCPU host. A
	// search workload runs as many cycles as fit its writing share of
	// --seconds at that pace: a count that --seconds alone fixes, so a
	// slow host runs the same writes, and the same journal compactions,
	// as a fast one.
	cycleTime = 550 * time.Millisecond
	// tracedCycles is the writer cycles a traced search run runs for
	// the untraced write figures its ledger needs; layerCycles is the
	// writer cycles the traced run's write-layer probe times.
	tracedCycles = 5
	layerCycles  = 3
	// cacheEntries is the server's default cache size, the number of
	// hottest zipf queries warmed before timing.
	cacheEntries = 512
)

var workloads = map[string]bool{"search-distinct": true, "search-zipf": true, "ingest": true}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one benchmark run.
type bench struct {
	workload string
	seed     int64
	seconds  time.Duration
	workdir  string

	res      result
	failures []string
}

func main() {
	b := &bench{}
	flag.StringVar(&b.workload, "workload", "", "search-distinct, search-zipf or ingest")
	flag.Int64Var(&b.seed, "seed", 1, "input seed")
	secs := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	flag.StringVar(&b.workdir, "workdir", ".bench_build", "directory for generated inputs and span files")
	flag.Parse()
	if !workloads[b.workload] || *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload search-distinct|search-zipf|ingest, --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	b.seconds = time.Duration(*secs) * time.Second
	b.res.Metrics = map[string]metric{}
	fmt.Printf("perfbench %s seed %d trace %d: %d datasets, journal sync %q, %d pushes of %d features per churn round of %d files, reader %d/s, nproc %d, GOMAXPROCS %d, %s\n",
		b.workload, b.seed, *trace, datasets, syncPolicy, pushesPerChurn, pushBatchSize, churnFiles, readerQPS,
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	work := filepath.Join(b.workdir, fmt.Sprintf("run-%d", os.Getpid()))
	var err error
	if *trace == 0 {
		err = b.untraced(work)
	} else {
		err = b.traced(work)
	}
	os.RemoveAll(work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b.res.Correct = b.res.Failed == 0 && b.res.Attempted > 0
	for _, f := range b.failures {
		fmt.Fprintln(os.Stderr, "perfbench: failure:", f)
	}
	out, err := json.Marshal(b.res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !b.res.Correct {
		os.Exit(1)
	}
}

// set records a metric and prints it on its own line.
func (b *bench) set(name string, value float64, unit, note string) {
	b.res.Metrics[name] = metric{Value: value, Unit: unit}
	if note != "" {
		note = " (" + note + ")"
	}
	fmt.Printf("%-32s %14.4f %s%s\n", name, value, unit, note)
}

// setTail records a tail metric with its percentile, its sample count
// and how many samples lie beyond it.
func (b *bench) setTail(name string, ms []float64) {
	v := quantile(ms, tailQ)
	beyond := 0
	for _, x := range ms {
		if x > v {
			beyond++
		}
	}
	b.set(name, v, "ms", fmt.Sprintf("p%g of %d samples, %d beyond it", 100*tailQ, len(ms), beyond))
}

// account adds a set of operations to the result.
func (b *bench) account(c *counts) {
	b.res.Attempted += c.attempted.Load()
	b.res.Failed += c.failed.Load()
	b.failures = append(b.failures, c.errors()...)
}

// gate adds the ranking gate's outcome to the result.
func (b *bench) gate(checked int, bad []error) {
	b.res.Attempted += int64(checked)
	b.res.Failed += int64(len(bad))
	for i, err := range bad {
		if i == 8 {
			break
		}
		b.failures = append(b.failures, "ranking gate: "+err.Error())
	}
}

func (b *bench) isSearch() bool { return b.workload != "ingest" }

func (b *bench) stream(p *pools) stream {
	if b.workload == "search-zipf" {
		return zipfStream(p, b.seed)
	}
	return distinctStream(p)
}

// prepare builds the inputs and, when asked, the mirror.
func (b *bench) prepare(e *env, rg *rig, withMirror bool) (*pools, *mirror, *writer, error) {
	p, err := newPools(e, b.seed)
	if err != nil {
		return nil, nil, nil, err
	}
	w := newWriter(e, rg, p, b.seed)
	if !withMirror {
		return p, nil, w, nil
	}
	m, err := newMirror(e, e.work)
	if err != nil {
		return nil, nil, nil, err
	}
	if _, _, err := m.run(); err != nil {
		m.close()
		return nil, nil, nil, err
	}
	return p, m, w, nil
}

// untraced is the measured run: end-to-end metrics only.
func (b *bench) untraced(work string) error {
	e, err := newEnv(work, b.seed, runtime.NumCPU())
	if err != nil {
		return err
	}
	var setups []float64
	var rg *rig
	for i := 0; i < setupRuns; i++ {
		if rg != nil {
			rg.close()
		}
		r, took, err := startRig(e, fmt.Sprintf("rig%d", i))
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		rg = r
		setups = append(setups, took.Seconds())
	}
	defer rg.close()
	heap := settledHeapMB()
	// The untraced run needs the mirror only as the ranking oracle.
	p, m, w, err := b.prepare(e, rg, b.isSearch())
	if err != nil {
		return err
	}
	if m != nil {
		defer m.close()
	}
	ctx := context.Background()

	var searchMs []float64
	var searchOK int64
	var searchElapsed time.Duration
	if b.isSearch() {
		// A quarter of --seconds is spent searching and about three
		// quarters running writer cycles, cut into searchParts parts,
		// so the search and write figures of a search workload are
		// both sampled across the whole run. The writes get the larger
		// share because each takes milliseconds, not microseconds:
		// their medians and tails need the time to rest on enough
		// samples.
		next := b.stream(p)
		sr := &searchRun{sampling: true}
		searchPart := b.seconds / 4 / searchParts
		cycles := max(1, int(b.seconds*3/4/searchParts/cycleTime))
		for c := 0; c < searchParts; c++ {
			if b.workload == "search-zipf" {
				if err := warm(ctx, rg, p, cacheEntries); err != nil {
					return err
				}
			}
			sr.run(ctx, rg, next, time.Now().Add(searchPart), nil)
			if c == 0 {
				// The ranking gate's samples all come before the first
				// write, while the mirror holds the leader's catalog.
				b.gate(checkRankings(ctx, m, rg.leader.SnapshotGeneration(), sr.takeSamples()))
				sr.sampling = false
				if err := w.settle(); err != nil {
					return err
				}
			}
			w.runMix(ctx, func(round int) bool { return round >= cycles*(pushesPerChurn+1) })
		}
		b.account(&sr.ops)
		searchMs, searchElapsed = sr.ms.values(), sr.elapsed
		searchOK = sr.ops.attempted.Load() - sr.ops.failed.Load()
	} else {
		if err := w.settle(); err != nil {
			return err
		}
		deadline := time.Now().Add(b.seconds)
		w.runMix(ctx, func(int) bool { return !time.Now().Before(deadline) })
		searchMs, searchElapsed = w.st.readerMs.values(), w.st.readerElapsed
		searchOK = w.st.reader.attempted.Load() - w.st.reader.failed.Load()
	}
	b.account(&w.st.ops)
	b.account(&w.st.reader)

	b.set("setup_s", median(setups), "s", fmt.Sprintf("median of %d set-ups", len(setups)))
	b.set("search_qps", float64(searchOK)/searchElapsed.Seconds(), "1/s", "")
	b.set("search_p50_ms", median(searchMs), "ms", fmt.Sprintf("%d samples", len(searchMs)))
	b.set("search_p99_ms", quantile(searchMs, 0.99), "ms", fmt.Sprintf("%d samples", len(searchMs)))
	b.set("publish_p50_ms", median(w.st.publishMs.values()), "ms", "")
	b.setTail("publish_tail_ms", w.st.publishMs.values())
	b.set("visible_p50_ms", median(w.st.visibleMs.values()), "ms",
		fmt.Sprintf("%d samples, %d leader compactions", len(w.st.visibleMs.values()), len(w.st.compactMs.values())))
	b.setTail("visible_tail_ms", w.st.visibleMs.values())
	b.set("wrangle_p50_ms", median(w.st.wrangleMs.values()), "ms", fmt.Sprintf("%d samples", len(w.st.wrangleMs.values())))
	errRatio := ratio(float64(b.res.Failed), float64(b.res.Attempted))
	fmt.Printf("%-32s %14.4f\n", "error_ratio", errRatio)
	b.set("success_ratio", 1-errRatio, "ratio", fmt.Sprintf("%d operations", b.res.Attempted))
	b.set("heap_mb", heap, "MB", "")
	return nil
}

// heapMB is the live Go heap after a forced collection.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// settledHeapMB reads the live heap until two readings a quarter
// second apart agree: the stacks torn down before the last set-up stay
// reachable for a moment after they close.
func settledHeapMB() float64 {
	prev := heapMB()
	for i := 0; i < 20; i++ {
		time.Sleep(250 * time.Millisecond)
		cur := heapMB()
		if math.Abs(cur-prev) < 0.001*prev {
			return cur
		}
		prev = cur
	}
	return prev
}
