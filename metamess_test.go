package metamess

import (
	"context"
	"errors"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"metamess/internal/archive"
	"metamess/internal/catalog"
)

func newSystem(t testing.TB, datasets int, seed int64) (*System, *archive.Manifest) {
	t.Helper()
	root := t.TempDir()
	m, err := archive.Generate(root, archive.DefaultGenConfig(datasets, seed))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(Config{ArchiveRoot: root})
	if err != nil {
		t.Fatal(err)
	}
	return sys, m
}

func f64(v float64) *float64 { return &v }

func TestNewRequiresRoot(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
}

func TestWrangleAndSearchEndToEnd(t *testing.T) {
	sys, m := newSystem(t, 30, 42)
	rep, err := sys.Wrangle()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Datasets != len(m.Datasets) {
		t.Errorf("datasets = %d, want %d", rep.Datasets, len(m.Datasets))
	}
	if rep.CoverageAfter <= rep.CoverageBefore || rep.CoverageAfter < 0.9 {
		t.Errorf("coverage %.3f -> %.3f", rep.CoverageBefore, rep.CoverageAfter)
	}
	if len(rep.Steps) == 0 {
		t.Error("no steps reported")
	}
	if sys.DatasetCount() != len(m.Datasets) {
		t.Errorf("DatasetCount = %d", sys.DatasetCount())
	}

	// The poster's motivating query: observations near a point in
	// mid-2010 with temperature between 5 and 10 C.
	hits, err := sys.Search(Query{
		Near:      &LatLon{Lat: 46.2, Lon: -123.8},
		From:      time.Date(2010, 5, 1, 0, 0, 0, 0, time.UTC),
		To:        time.Date(2010, 8, 1, 0, 0, 0, 0, time.UTC),
		Variables: []VariableTerm{{Name: "temperature", Min: f64(5), Max: f64(10)}},
		K:         5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 {
		t.Fatal("motivating query found nothing")
	}
	if hits[0].Score <= 0 || hits[0].Score > 1 {
		t.Errorf("score = %v", hits[0].Score)
	}
	if hits[0].Summary == "" || !strings.Contains(hits[0].Summary, "Dataset:") {
		t.Error("hit missing summary page")
	}
	if len(hits[0].MatchedVariables) == 0 {
		t.Error("hit missing match explanations")
	}
	for i := 1; i < len(hits); i++ {
		if hits[i-1].Score < hits[i].Score {
			t.Error("hits not ranked")
		}
	}
}

func TestSearchTextMatchesStructuredQuery(t *testing.T) {
	sys, _ := newSystem(t, 30, 42)
	if _, err := sys.Wrangle(); err != nil {
		t.Fatal(err)
	}
	textHits, err := sys.SearchText(
		`near 46.2,-123.8 from 2010-05-01 to 2010-08-01 with temperature between 5 and 10 top 5`)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := 5.0, 10.0
	structHits, err := sys.Search(Query{
		Near:      &LatLon{Lat: 46.2, Lon: -123.8},
		From:      time.Date(2010, 5, 1, 0, 0, 0, 0, time.UTC),
		To:        time.Date(2010, 8, 1, 0, 0, 0, 0, time.UTC),
		Variables: []VariableTerm{{Name: "temperature", Min: &lo, Max: &hi}},
		K:         5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(textHits) != len(structHits) {
		t.Fatalf("text %d hits vs structured %d", len(textHits), len(structHits))
	}
	for i := range textHits {
		if textHits[i].Path != structHits[i].Path || textHits[i].Score != structHits[i].Score {
			t.Errorf("rank %d: %s/%.3f vs %s/%.3f", i,
				textHits[i].Path, textHits[i].Score, structHits[i].Path, structHits[i].Score)
		}
	}
	if _, err := sys.SearchText("gibberish query"); err == nil {
		t.Error("bad text query accepted")
	}
}

func TestDatasetSummaryLookup(t *testing.T) {
	sys, m := newSystem(t, 9, 3)
	if _, err := sys.Wrangle(); err != nil {
		t.Fatal(err)
	}
	page, err := sys.DatasetSummary(m.Datasets[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(page, m.Datasets[0].Path) {
		t.Error("summary missing path")
	}
	if _, err := sys.DatasetSummary("no/such/file.csv"); err == nil {
		t.Error("unknown path accepted")
	}
}

func TestSnapshotGenerationBumpsOnWrangle(t *testing.T) {
	root := t.TempDir()
	if _, err := archive.Generate(root, archive.DefaultGenConfig(12, 8)); err != nil {
		t.Fatal(err)
	}
	sys, err := New(Config{ArchiveRoot: root})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Wrangle(); err != nil {
		t.Fatal(err)
	}
	gen1 := sys.SnapshotGeneration()
	// Reads do not move the generation.
	if _, err := sys.Search(Query{Variables: []VariableTerm{{Name: "temperature"}}}); err != nil {
		t.Fatal(err)
	}
	if got := sys.SnapshotGeneration(); got != gen1 {
		t.Errorf("generation moved on read: %d -> %d", gen1, got)
	}
	// A no-op re-wrangle publishes an empty delta: the generation holds,
	// so generation-keyed caches stay warm across it.
	rep, err := sys.Wrangle()
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.SnapshotGeneration(); got != gen1 {
		t.Errorf("no-op re-wrangle moved the generation: %d -> %d", gen1, got)
	}
	if !rep.Delta.GenerationStable || rep.Delta.Published != 0 {
		t.Errorf("no-op delta summary = %+v", rep.Delta)
	}
	// Real churn moves it: grow the archive and re-wrangle.
	if _, err := archive.Generate(filepath.Join(root, "extra"), archive.DefaultGenConfig(3, 77)); err != nil {
		t.Fatal(err)
	}
	rep, err = sys.Wrangle()
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.SnapshotGeneration(); got <= gen1 {
		t.Errorf("generation not bumped by a changing publish: %d -> %d", gen1, got)
	}
	if rep.Delta.Added != 3 || rep.Delta.GenerationStable {
		t.Errorf("churn delta summary = %+v", rep.Delta)
	}
}

// TestSearchGenerationLabelsPublishes pushes and retracts one dataset
// while searches run concurrently (under -race in CI): every search's
// reported generation must be one a publish receipt handed out (or the
// wrangled starting point), and the pushed path must be among the hits
// exactly at the generations whose receipts published it. A label read
// from the catalog before or after the ranking, instead of from the
// snapshot ranked, breaks this whenever a publish lands mid-search.
func TestSearchGenerationLabelsPublishes(t *testing.T) {
	sys, _ := newSystem(t, 12, 31)
	if _, err := sys.Wrangle(); err != nil {
		t.Fatal(err)
	}
	var probe *catalog.Feature
	sys.ctx.Published.ForEach(func(f *catalog.Feature) {
		if probe == nil {
			probe = f.Clone()
		}
	})
	probe.Path = "pushed/" + filepath.Base(probe.Path)
	probe.ID = catalog.IDForPath(probe.Path)

	// present maps every generation a search may report to whether the
	// probe is published at it.
	present := map[uint64]bool{sys.SnapshotGeneration(): false}
	var lastGen uint64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 40; i++ {
			req := &PublishRequest{Features: []*catalog.Feature{probe.Clone()}}
			if i%2 == 1 {
				req = &PublishRequest{Remove: []string{probe.Path}}
			}
			rec, err := sys.PublishFeatures(req)
			if err != nil || rec.Stable {
				t.Errorf("publish %d: receipt %+v, err %v", i, rec, err)
				return
			}
			present[rec.Generation] = i%2 == 0
			lastGen = rec.Generation
		}
	}()

	// Near a point every dataset scores above zero on space, so a K
	// larger than the catalog returns every published dataset.
	q := Query{Near: &LatLon{Lat: 46, Lon: -124}, K: 1000}
	type observation struct {
		gen   uint64
		found bool
	}
	var mu sync.Mutex
	var seen []observation
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				hits, gen, partial, err := sys.SearchPartialContext(context.Background(), q)
				if err != nil || partial {
					t.Errorf("search: partial=%v err=%v", partial, err)
					return
				}
				found := false
				for _, h := range hits {
					found = found || h.Path == probe.Path
				}
				mu.Lock()
				seen = append(seen, observation{gen, found})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	<-done
	for _, o := range seen {
		want, ok := present[o.gen]
		if !ok {
			t.Fatalf("search reported generation %d, which no publish produced", o.gen)
		}
		if o.found != want {
			t.Fatalf("at generation %d the pushed dataset was found=%v, its receipt says %v", o.gen, o.found, want)
		}
	}
	if _, gen, _, err := sys.SearchPartialContext(context.Background(), q); err != nil || gen != lastGen {
		t.Errorf("search after the last publish: generation %d (err %v), want %d", gen, err, lastGen)
	}
}

func TestSearchContextCancellation(t *testing.T) {
	sys, _ := newSystem(t, 12, 8)
	if _, err := sys.Wrangle(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sys.SearchContext(ctx, Query{Variables: []VariableTerm{{Name: "temperature"}}}); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled structured search: err = %v", err)
	}
	// A live context behaves exactly like the plain entry points.
	h1, err := sys.SearchContext(context.Background(), Query{Variables: []VariableTerm{{Name: "temperature"}}, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	h2, err := sys.Search(Query{Variables: []VariableTerm{{Name: "temperature"}}, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(h1) != len(h2) {
		t.Errorf("context vs plain search: %d vs %d hits", len(h1), len(h2))
	}
}

func TestCuratorWorkflow(t *testing.T) {
	sys, _ := newSystem(t, 30, 99)
	if _, err := sys.Wrangle(); err != nil {
		t.Fatal(err)
	}
	queue := sys.CuratorQueue()
	if len(queue) == 0 {
		t.Skip("no curator queue at this seed")
	}
	// Clarify the first queued name (facade smoke path; targets come from
	// the curator's own knowledge in practice).
	raw := strings.Fields(queue[0])[0]
	sys.Clarify(raw, "water_temperature")
	if _, err := sys.Wrangle(); err != nil {
		t.Fatal(err)
	}
	for _, q := range sys.CuratorQueue() {
		if strings.Fields(q)[0] == raw {
			t.Errorf("clarified name %q still queued", raw)
		}
	}
}

func TestAddSynonymImprovesCoverage(t *testing.T) {
	sys, m := newSystem(t, 30, 99)
	r1, err := sys.Wrangle()
	if err != nil {
		t.Fatal(err)
	}
	if r1.UnresolvedNames == 0 {
		t.Skip("nothing unresolved at this seed")
	}
	canonical := m.CanonicalFor()
	for _, line := range sys.CuratorQueue() {
		raw := strings.Fields(line)[0]
		if canon := canonical[raw]; canon != "" && canon != raw {
			if err := sys.AddSynonym(canon, raw); err != nil {
				t.Logf("AddSynonym(%q, %q): %v", canon, raw, err)
			}
		}
	}
	r2, err := sys.Wrangle()
	if err != nil {
		t.Fatal(err)
	}
	if r2.UnresolvedNames > r1.UnresolvedNames {
		t.Errorf("unresolved grew: %d -> %d", r1.UnresolvedNames, r2.UnresolvedNames)
	}
}

func TestExportRulesAndMenu(t *testing.T) {
	sys, _ := newSystem(t, 30, 42)
	if _, err := sys.Wrangle(); err != nil {
		t.Fatal(err)
	}
	rules, err := sys.ExportRules()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(strings.TrimSpace(string(rules)), "[") {
		t.Error("rules not a JSON array")
	}
	menu := sys.VariableMenu(0)
	if len(menu) == 0 {
		t.Error("empty variable menu")
	}
	collapsed := sys.VariableMenu(1)
	if len(collapsed) > len(menu) {
		t.Error("collapsed menu longer than full menu")
	}
}

func TestSaveLoadCatalog(t *testing.T) {
	sys, _ := newSystem(t, 9, 7)
	if _, err := sys.Wrangle(); err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/published.snapshot"
	if err := sys.SaveCatalog(path); err != nil {
		t.Fatal(err)
	}
	// A second system loads the snapshot without touching the archive.
	other, err := New(Config{ArchiveRoot: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if err := other.LoadCatalog(path); err != nil {
		t.Fatal(err)
	}
	if other.DatasetCount() != sys.DatasetCount() {
		t.Errorf("loaded %d datasets, want %d", other.DatasetCount(), sys.DatasetCount())
	}
	hits, err := other.Search(Query{Variables: []VariableTerm{{Name: "salinity"}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 {
		t.Error("loaded catalog not searchable")
	}
}

func TestStrictValidationBlocksPublish(t *testing.T) {
	root := t.TempDir()
	if _, err := archive.Generate(root, archive.DefaultGenConfig(6, 1)); err != nil {
		t.Fatal(err)
	}
	sys, err := New(Config{
		ArchiveRoot:      root,
		ExpectedDatasets: []string{"never/there.obs"},
		StrictValidation: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Wrangle(); err == nil {
		t.Fatal("strict validation should fail the run")
	}
	if sys.DatasetCount() != 0 {
		t.Error("publish happened despite failed validation")
	}
	if sys.ValidationOK() {
		t.Error("validation reported OK")
	}
	if len(sys.Validation()) == 0 {
		t.Error("no validation findings exposed")
	}
}
