package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"metamess"
	"metamess/internal/archive"
	"metamess/internal/server"
	"metamess/internal/workload"
)

const (
	// datasets sizes the generated archive.
	datasets = 2000
	// syncPolicy is the journal fsync policy of the leader and the
	// follower: every acknowledged publish is on disk.
	syncPolicy = "always"
)

// env is the generated input shared by every set-up of one run.
type env struct {
	work     string // scratch directory of this run
	archive  string
	dirs     []string // the archive's top-level directories
	manifest *archive.Manifest
	conns    int // connections per server = nproc
}

func newEnv(work string, seed int64, conns int) (*env, error) {
	root := filepath.Join(work, "archive")
	m, err := archive.Generate(root, archive.DefaultGenConfig(datasets, seed))
	if err != nil {
		return nil, fmt.Errorf("generate archive: %w", err)
	}
	// The walker is scoped to the generated directories, as a deployment
	// that also takes pushes must scope it: a walker over the whole root
	// treats pushed paths as deleted files and retracts them.
	seen := map[string]bool{}
	for _, d := range m.Datasets {
		seen[strings.SplitN(d.Path, "/", 2)[0]] = true
	}
	var dirs []string
	for d := range seen {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	return &env{work: work, archive: root, dirs: dirs, manifest: m, conns: conns}, nil
}

// rig is one self-hosted stack: a durable leader with its server and a
// durable follower tailing it, with its own server.
type rig struct {
	dir                string
	leader, follower   *metamess.System
	lsrv, fsrv         *server.Server
	lbase, fbase       string
	replica            *server.Replicator
	leaderC, followerC *client
	// startupCompactMs times the compaction after the cold wrangle (0
	// when it did not compact).
	startupCompactMs float64
}

// startRig builds a stack and returns it with its set-up time: from
// metamess.New through the cold Wrangle and compaction to a serving
// leader and a caught-up, serving follower.
func startRig(e *env, name string) (*rig, time.Duration, error) {
	r := &rig{dir: filepath.Join(e.work, name)}
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	err := r.start(e)
	took := time.Since(t0)
	if err != nil {
		r.close()
		return nil, 0, err
	}
	return r, took, nil
}

func (r *rig) start(e *env) error {
	var err error
	r.leader, err = metamess.New(metamess.Config{
		ArchiveRoot: e.archive,
		Dirs:        e.dirs,
		DataDir:     filepath.Join(r.dir, "leader"),
		SyncPolicy:  syncPolicy,
	})
	if err != nil {
		return err
	}
	if _, err := r.leader.Wrangle(); err != nil {
		return fmt.Errorf("cold wrangle: %w", err)
	}
	// dnhd compacts after its startup wrangle, so a follower tails a
	// journal of realistic length.
	t0 := time.Now()
	done, err := r.leader.CompactIfNeeded()
	if err != nil {
		return fmt.Errorf("startup compaction: %w", err)
	}
	if done {
		r.startupCompactMs = msSince(t0)
	}
	if r.lsrv, err = server.New(server.Config{Sys: r.leader}); err != nil {
		return err
	}
	addr, err := r.lsrv.Start("127.0.0.1:0")
	if err != nil {
		r.lsrv = nil
		return err
	}
	r.lbase = "http://" + addr.String()

	r.follower, err = metamess.New(metamess.Config{
		ArchiveRoot: filepath.Join(r.dir, "follower-archive"),
		DataDir:     filepath.Join(r.dir, "follower"),
		SyncPolicy:  syncPolicy,
	})
	if err != nil {
		return err
	}
	if r.replica, err = server.NewReplicator(server.ReplicaConfig{Leader: r.lbase, Sys: r.follower}); err != nil {
		return fmt.Errorf("follower: %w", err)
	}
	if r.fsrv, err = server.New(server.Config{Sys: r.follower, Replica: r.replica}); err != nil {
		return err
	}
	r.replica.Start()
	faddr, err := r.fsrv.Start("127.0.0.1:0")
	if err != nil {
		r.fsrv = nil
		return err
	}
	r.fbase = "http://" + faddr.String()
	r.leaderC = newClient(r.lbase, e.conns)
	r.followerC = newClient(r.fbase, e.conns)
	return r.awaitFollower(r.leader.SnapshotGeneration(), time.Minute)
}

// awaitFollower polls until the follower serves generation gen.
func (r *rig) awaitFollower(gen uint64, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for r.follower.SnapshotGeneration() < gen {
		if time.Now().After(deadline) {
			return fmt.Errorf("follower stuck at generation %d, leader at %d", r.follower.SnapshotGeneration(), gen)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// close stops every goroutine the rig started and removes its files.
func (r *rig) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if r.replica != nil {
		r.replica.Stop()
	}
	for _, c := range []*client{r.leaderC, r.followerC} {
		if c != nil {
			c.close()
		}
	}
	for _, s := range []*server.Server{r.fsrv, r.lsrv} {
		if s != nil {
			s.Shutdown(ctx)
		}
	}
	for _, s := range []*metamess.System{r.follower, r.leader} {
		if s != nil {
			s.Close()
		}
	}
	os.RemoveAll(r.dir)
}

// pools are the generated request bodies of one run.
type pools struct {
	// distinct holds de-duplicated POST /search bodies with their
	// queries.
	distinct []queryBody
	// pushes holds POST /publish bodies; batch k retracts batch k-1, so
	// the pushed share of the catalog stays one batch.
	pushes [][]byte
	// pushProbes[k] is the read-your-writes probe of batch k: a search
	// aimed at the batch's first feature, which it must find.
	pushProbes []probe
}

// probe is a search that must return want among its hits (when set).
type probe struct {
	body []byte
	want string
}

type queryBody struct {
	q    workload.Judged
	body []byte
}

const (
	// queryDraw is how many queries are drawn before de-duplication.
	queryDraw = 12000
	// pushBatches is the publish pool; the writer cycles through it,
	// and a batch re-published after its retraction is a real delta.
	pushBatches = 64
	// pushBatchSize is the features per POST /publish.
	pushBatchSize = 100
)

func newPools(e *env, seed int64) (*pools, error) {
	qs, err := workload.Queries(e.manifest, queryDraw, seed, workload.DefaultRelevance(), false)
	if err != nil {
		return nil, err
	}
	p := &pools{}
	seen := map[string]bool{}
	for _, q := range qs {
		body, err := json.Marshal(server.RequestFromQuery(q.Query))
		if err != nil {
			return nil, err
		}
		if seen[string(body)] {
			continue
		}
		seen[string(body)] = true
		p.distinct = append(p.distinct, queryBody{q: q, body: body})
	}
	reqs, err := workload.PublishRequests("", pushBatches, pushBatchSize, seed+1)
	if err != nil {
		return nil, err
	}
	batches := make([]*metamess.PublishRequest, len(reqs))
	paths := make([][]string, len(reqs))
	for i, hr := range reqs {
		if batches[i], err = metamess.DecodePublishRequest(hr.Body); err != nil {
			return nil, err
		}
		for _, f := range batches[i].Features {
			paths[i] = append(paths[i], f.Path)
		}
	}
	for i, req := range batches {
		req.Remove = paths[(i+len(batches)-1)%len(batches)]
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		p.pushes = append(p.pushes, body)
		f := req.Features[0]
		c := f.BBox.Center()
		pr, err := json.Marshal(server.SearchRequest{
			Near:      &server.LatLon{Lat: c.Lat, Lon: c.Lon},
			From:      f.Time.Start,
			To:        f.Time.End,
			Variables: []server.Variable{{Name: f.Variables[0].Name}},
			K:         10,
		})
		if err != nil {
			return nil, err
		}
		p.pushProbes = append(p.pushProbes, probe{body: pr, want: f.Path})
	}
	return p, nil
}
