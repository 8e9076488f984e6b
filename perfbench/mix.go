package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"metamess"
	"metamess/internal/archive"
	"metamess/internal/semdiv"
	"metamess/internal/server"
)

const (
	// churnFiles is one churn round: ~1% of the archive's files.
	churnFiles = 20
	// pushesPerChurn is the publish-to-churn ratio of the writer: every
	// cycle is one churn round followed by this many push rounds.
	pushesPerChurn = 4
	// readerQPS is the open-loop reader's rate against the leader, well
	// below the leader's search capacity.
	readerQPS = 100
	// racyWait outlasts the scanner's 2 s racy-mtime window.
	racyWait = 2200 * time.Millisecond
)

// writer drives the write side of the ingest mix against one rig and
// checks every write: churn rounds (archive edits, then Wrangle, then
// CompactIfNeeded, as the dnhd rewrangle loop does) and push rounds
// (POST /publish), each followed by a read-your-writes probe on the
// follower.
type writer struct {
	rg *rig
	p  *pools
	tr *recorder

	archiveRoot string
	obs         []archive.DatasetInfo // OBS datasets, in churn order
	nextObs     int
	nextPush    int
	pushed      bool      // a batch is live, so the next push retracts one
	lastGen     uint64    // the leader generation after the last write
	nextRead    int       // the reader's next query, continued across phases
	settleAt    time.Time // earliest start of warm wrangles

	st *mixStats // where the current phase's figures go
}

// mixStats are the figures of one phase of the mix.
type mixStats struct {
	ops                  counts // writes and visibility probes
	reader               counts
	publishMs, visibleMs latencies
	wrangleMs, compactMs latencies
	statCalls, messMs    latencies
	readerMs, readerLate latencies
	readerElapsed        time.Duration
}

func newWriter(e *env, rg *rig, p *pools, seed int64) *writer {
	w := &writer{rg: rg, p: p, st: &mixStats{}, lastGen: rg.leader.SnapshotGeneration(),
		nextRead: len(p.distinct) / 4, settleAt: time.Now().Add(racyWait)}
	w.archiveRoot = e.archive
	for _, d := range e.manifest.Datasets {
		if d.Format == archive.FormatOBS {
			w.obs = append(w.obs, d)
		}
	}
	w.nextObs = int(seed % int64(len(w.obs)))
	return w
}

// touch appends a copy of the file's last line: a real content change
// that keeps the file parseable.
func touch(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	lines := bytes.Split(bytes.TrimRight(data, "\n"), []byte("\n"))
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(lines[len(lines)-1], '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// churn edits the next n OBS files and returns the read-your-writes
// probe of the round: a search aimed at the first edited dataset.
func (w *writer) churn(n int) (probe, error) {
	first := w.obs[w.nextObs%len(w.obs)]
	for i := 0; i < n; i++ {
		if err := touch(filepath.Join(w.archiveRoot, w.obs[w.nextObs%len(w.obs)].Path)); err != nil {
			return probe{}, err
		}
		w.nextObs++
	}
	return datasetProbe(first)
}

// datasetProbe aims a search at a dataset's place, time and first
// searchable variable, the way workload.Queries anchors its queries.
// It does not demand the dataset: a station's datasets share its place,
// and more than K of them can outrank the edited one.
func datasetProbe(d archive.DatasetInfo) (probe, error) {
	name := d.Vars[0].Canonical
	for _, v := range d.Vars {
		if v.Category != semdiv.CatExcessive {
			name = v.Canonical
			break
		}
	}
	c := d.BBox.Center()
	body, err := json.Marshal(server.SearchRequest{
		Near:      &server.LatLon{Lat: c.Lat, Lon: c.Lon},
		From:      d.Time.Start,
		To:        d.Time.End,
		Variables: []server.Variable{{Name: name}},
		K:         10,
	})
	return probe{body: body}, err
}

// settle waits out the racy-mtime window and runs warm wrangles until
// rule discovery reaches its fixed point (a wrangle that is not a full
// reprocess), then compacts and waits for the follower. Nothing here
// is timed.
func (w *writer) settle() error {
	time.Sleep(time.Until(w.settleAt))
	if _, err := w.rg.leader.Wrangle(); err != nil {
		return err
	}
	settled := false
	for tries := 0; tries < 8 && !settled; tries++ {
		if _, err := w.churn(1); err != nil {
			return err
		}
		rep, err := w.rg.leader.Wrangle()
		if err != nil {
			return err
		}
		settled = !rep.Delta.FullReprocess
	}
	if !settled {
		return fmt.Errorf("wrangling never settled into delta-scoped runs")
	}
	if _, err := w.rg.leader.CompactIfNeeded(); err != nil {
		return err
	}
	w.lastGen = w.rg.leader.SnapshotGeneration()
	return w.rg.awaitFollower(w.lastGen, time.Minute)
}

// checkGen enforces one generation per write.
func (w *writer) checkGen(gen uint64) error {
	want := w.lastGen + 1
	w.lastGen = gen
	if gen != want {
		return fmt.Errorf("write landed at generation %d, want %d", gen, want)
	}
	return nil
}

// checkWrangle is the warm-wrangle gate: delta-scoped, and publishing
// exactly the churned files.
func (w *writer) checkWrangle(rep *metamess.Report) error {
	if err := w.checkGen(w.rg.leader.SnapshotGeneration()); err != nil {
		return err
	}
	d := rep.Delta
	if d.FullReprocess || d.Changed != churnFiles || d.Added != 0 || d.Removed != 0 ||
		d.Published != churnFiles || d.Retracted != 0 {
		return fmt.Errorf("warm wrangle delta %+v, want %d changed and published, nothing else", d, churnFiles)
	}
	return nil
}

// checkReceipt is the push gate.
func (w *writer) checkReceipt(rc metamess.PublishReceipt) error {
	if err := w.checkGen(rc.Generation); err != nil {
		return err
	}
	wantRetracted := 0
	if w.pushed {
		wantRetracted = pushBatchSize
	}
	w.pushed = true
	if rc.Published != pushBatchSize || rc.Retracted != wantRetracted || rc.Stable {
		return fmt.Errorf("publish receipt %+v, want %d published and %d retracted", rc, pushBatchSize, wantRetracted)
	}
	return nil
}

// churnRound is one churn write of the mix.
func (w *writer) churnRound(ctx context.Context) {
	pr, err := w.churn(churnFiles)
	if err != nil {
		w.st.ops.note(err)
		return
	}
	req := w.tr.newReq()
	id := w.tr.start("metamess.wrangle", -1, req)
	t0 := time.Now()
	rep, err := w.rg.leader.Wrangle()
	ack := time.Now()
	w.tr.end(id)
	if err == nil {
		w.st.wrangleMs.add(float64(ack.Sub(t0).Nanoseconds()) / 1e6)
		err = w.checkWrangle(rep)
	}
	w.st.ops.note(err)
	w.compact()
	w.visible(ctx, w.lastGen, ack, req, pr)
}

// compact runs the leader's compaction check and times real
// compactions.
func (w *writer) compact() {
	t0 := time.Now()
	done, err := w.rg.leader.CompactIfNeeded()
	if err != nil {
		w.st.ops.note(err)
	}
	if done {
		w.st.compactMs.add(msSince(t0))
	}
}

// pushRound is one POST /publish write of the mix.
func (w *writer) pushRound(ctx context.Context) {
	k := w.nextPush % len(w.p.pushes)
	w.nextPush++
	req := w.tr.newReq()
	id := w.tr.start("http.publish", -1, req)
	t0 := time.Now()
	r := w.rg.leaderC.do(ctx, http.MethodPost, "/publish", w.p.pushes[k], 0)
	ack := time.Now()
	w.tr.end(id)
	var rc metamess.PublishReceipt
	err := r.err
	if err == nil && r.status != http.StatusOK {
		err = fmt.Errorf("publish status %d: %.120s", r.status, r.body)
	}
	if err == nil {
		err = json.Unmarshal(r.body, &rc)
	}
	if err == nil {
		err = w.checkReceipt(rc)
	}
	if err == nil {
		w.st.publishMs.add(float64(ack.Sub(t0).Nanoseconds()) / 1e6)
	}
	w.st.ops.note(err)
	w.visible(ctx, w.lastGen, ack, req, w.p.pushProbes[k])
}

// visible is the read-your-writes probe: a search on the follower that
// demands generation gen, timed from the write's ack. The follower must
// find the probe's wanted dataset, if any, and its body must equal the
// leader's at the same generation.
func (w *writer) visible(ctx context.Context, gen uint64, ack time.Time, req int64, pr probe) {
	id := w.tr.start("http.visible", -1, req)
	fr := w.rg.followerC.do(ctx, http.MethodPost, "/search", pr.body, gen)
	vis := msSince(ack)
	w.tr.end(id)
	err := searchReplyError(fr)
	if err == nil && fr.gen != gen {
		err = fmt.Errorf("follower answered generation %d, demanded %d", fr.gen, gen)
	}
	if err == nil && pr.want != "" && !bytes.Contains(fr.body, []byte(`"path":"`+pr.want+`"`)) {
		err = fmt.Errorf("follower at generation %d does not find the written dataset %s", gen, pr.want)
	}
	if err == nil {
		lr := w.rg.leaderC.do(ctx, http.MethodPost, "/search", pr.body, 0)
		if err = searchReplyError(lr); err == nil && (lr.gen != gen || !bytes.Equal(fr.body, lr.body)) {
			err = fmt.Errorf("follower body differs from leader body at generation %d (leader at %d)", gen, lr.gen)
		}
	}
	if err == nil {
		w.st.visibleMs.add(vis)
	}
	w.st.ops.note(err)
}

// runMix runs the writer and the open-loop reader until done reports
// true before a round.
func (w *writer) runMix(ctx context.Context, done func(round int) bool) {
	stop := make(chan struct{})
	finished := make(chan struct{})
	base := w.nextRead
	go func() {
		defer close(finished)
		elapsed, issued := openLoop(readerQPS, w.rg.leaderC.maxConns, stop, &w.st.readerLate, func(i int, due time.Time) {
			q := w.p.distinct[(base+i)%len(w.p.distinct)]
			id := w.tr.start("http.search", -1, w.tr.newReq())
			r := w.rg.leaderC.do(ctx, http.MethodPost, "/search", q.body, 0)
			lat := msSince(due)
			w.tr.end(id)
			err := searchReplyError(r)
			w.st.reader.noteCache(r)
			w.st.reader.note(err)
			if err == nil {
				w.st.readerMs.add(lat)
			}
		})
		w.st.readerElapsed += elapsed
		w.nextRead += issued
	}()
	for round := 0; !done(round); round++ {
		if round%(pushesPerChurn+1) == 0 {
			w.churnRound(ctx)
		} else {
			w.pushRound(ctx)
		}
	}
	close(stop)
	<-finished
}
