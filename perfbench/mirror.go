package main

import (
	"fmt"
	"path/filepath"
	"time"

	"metamess"
	"metamess/internal/catalog"
	"metamess/internal/core"
	"metamess/internal/hierarchy"
	"metamess/internal/scan"
	"metamess/internal/search"
	"metamess/internal/semdiv"
	"metamess/internal/vocab"
)

// mirror rebuilds the facade's wiring from the benchmark's side — the
// same knowledge, chain, durable journal and searcher options that
// metamess.New assembles — so the benchmark can time the layers the
// facade does not expose and rank with a linear-scan oracle over the
// same catalog. It wrangles the same archive as the leader.
type mirror struct {
	ctx      *core.Context
	proc     *core.Process
	taxonomy *hierarchy.Taxonomy
	store    *catalog.Store
	steps    []*timedComponent
	expander *search.KnowledgeExpander
	indexed  *search.Searcher // the facade's searcher options
	linear   *search.Searcher // UseIndex=false: the ranking oracle

	// tr, when set, receives a span per component under span/req.
	tr   *recorder
	span int32
	req  int64
}

// timedComponent wraps a chain component and records its last run.
type timedComponent struct {
	inner core.Component
	label string // metric label; distinguishes the second known-transforms
	m     *mirror
	last  time.Duration
}

func (t *timedComponent) Name() string { return t.inner.Name() }

func (t *timedComponent) Run(ctx *core.Context) (core.StepReport, error) {
	parent := t.m.span
	id := t.m.tr.start("core."+t.label, parent, t.m.req)
	if id >= 0 {
		// The journal append inside publish nests under this span.
		t.m.span = id
	}
	start := time.Now()
	rep, err := t.inner.Run(ctx)
	t.last = time.Since(start)
	t.m.tr.end(id)
	t.m.span = parent
	return rep, err
}

func newMirror(e *env, dir string) (*mirror, error) {
	k, err := semdiv.NewKnowledge(vocab.Standard())
	if err != nil {
		return nil, err
	}
	m := &mirror{}
	m.ctx = core.NewContextSharded(k, scan.Config{Root: e.archive, Dirs: e.dirs}, 0)
	chain := []core.Component{
		core.ScanArchive{},
		core.KnownTransforms{},
		core.AddExternalMetadata{},
		core.DiscoverTransforms{},
		core.PerformDiscovered{},
		core.KnownTransforms{},
		core.GenerateHierarchies{Taxonomy: &m.taxonomy},
		core.Validate{AllowErrors: true},
		core.Publish{},
	}
	comps := make([]core.Component, len(chain))
	seen := map[string]bool{}
	for i, c := range chain {
		label := c.Name()
		if seen[label] {
			label += "-rerun"
		}
		seen[c.Name()] = true
		m.steps = append(m.steps, &timedComponent{inner: c, label: label, m: m})
		comps[i] = m.steps[i]
	}
	m.proc = core.NewProcess("perfbench-mirror", comps...)
	policy, err := catalog.ParseSyncPolicy(syncPolicy)
	if err != nil {
		return nil, err
	}
	m.store, err = catalog.OpenStore(filepath.Join(dir, "mirror"), m.ctx.Published, catalog.StoreOptions{Sync: policy})
	if err != nil {
		return nil, err
	}
	m.ctx.Journal = m

	m.expander = search.NewKnowledgeExpander(k)
	opts := search.DefaultOptions()
	opts.Expander = m.expander
	m.indexed = search.New(m.ctx.Published, opts)
	opts.UseIndex = false
	m.linear = search.New(m.ctx.Published, opts)
	return m, nil
}

// AppendPublish implements core.PublishJournal, timing the store's
// append (with its fsync under the "always" policy).
func (m *mirror) AppendPublish(gen uint64, changed []*catalog.Feature, removed []string, sidecar []byte) error {
	id := m.tr.start("catalog.append_fsync", m.span, m.req)
	err := m.store.AppendPublish(gen, changed, removed, sidecar)
	m.tr.end(id)
	return err
}

// run executes the chain once and returns its duration; the gap
// between it and the sum of component times is the chain's own
// bookkeeping (the mess metric).
func (m *mirror) run() (total, components time.Duration, err error) {
	start := time.Now()
	if _, err := m.proc.Run(m.ctx); err != nil {
		return 0, 0, err
	}
	total = time.Since(start)
	for _, s := range m.steps {
		components += s.last
	}
	return total, components, nil
}

// publish applies a pushed batch the way core.PublishDirect does — the
// working catalog first, then the served catalog, then the journal —
// timing the served catalog's ApplyDelta and the journal append.
func (m *mirror) publish(req *metamess.PublishRequest) error {
	snap := m.ctx.Published.Snapshot()
	changed := make([]*catalog.Feature, 0, len(req.Features))
	for _, f := range req.Features {
		if err := m.ctx.Working.Upsert(f); err != nil {
			return err
		}
		changed = append(changed, f.Clone())
	}
	var removed []string
	for _, p := range req.Remove {
		id := catalog.IDForPath(p)
		m.ctx.Working.Delete(id)
		if _, ok := snap.ByID(id); ok {
			removed = append(removed, id)
		}
	}
	id := m.tr.start("catalog.apply_delta", m.span, m.req)
	_, err := m.ctx.Published.ApplyDelta(changed, removed)
	m.tr.end(id)
	if err != nil {
		return fmt.Errorf("mirror apply: %w", err)
	}
	sidecar, err := m.ctx.EpochSidecar()
	if err != nil {
		return err
	}
	return m.AppendPublish(m.ctx.Published.Generation(), changed, removed, sidecar)
}

func (m *mirror) close() { m.store.Close() }
