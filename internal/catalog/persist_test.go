package catalog

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// saveLines saves c to a fresh snapshot and returns its lines (each
// with its newline).
func saveLines(t testing.TB, c *Catalog) []string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "base.snap")
	if err := Save(path, c); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	return lines[:len(lines)-1] // the empty remainder after the final newline
}

// writeLines writes lines to name under dir and returns the path.
func writeLines(t testing.TB, dir, name string, lines []string) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func twoFeatureCatalog(t testing.TB) *Catalog {
	t.Helper()
	c := New()
	for _, f := range []*Feature{feat("a.csv", "x"), feat("b.csv", "y")} {
		if err := c.Upsert(f); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// TestLogReplayRoundTrip saves a catalog that saw puts and a delete and
// loads back exactly the surviving feature.
func TestLogReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "catalog.snap")
	c := New()
	f1 := feat("a.csv", "salinity")
	f2 := feat("b.csv", "water_temperature")
	for _, f := range []*Feature{f1, f2} {
		if err := c.Upsert(f); err != nil {
			t.Fatal(err)
		}
	}
	c.Delete(f1.ID)
	if err := Save(path, c); err != nil {
		t.Fatal(err)
	}

	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 1 {
		t.Fatalf("loaded Len = %d, want 1 (put, put, delete)", back.Len())
	}
	if _, ok := back.Get(f2.ID); !ok {
		t.Error("surviving feature missing")
	}
	if _, ok := back.Get(f1.ID); ok {
		t.Error("deleted feature resurrected")
	}
}

func TestReplayMissingFile(t *testing.T) {
	c, err := Load(filepath.Join(t.TempDir(), "nope.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 0 {
		t.Error("missing snapshot should load to an empty catalog")
	}
}

// TestLoadRejectsTornSnapshot: Save writes atomically, so a torn final
// line can only be outside damage — Load fails closed instead of
// dropping the line the way journal replay does.
func TestLoadRejectsTornSnapshot(t *testing.T) {
	lines := saveLines(t, twoFeatureCatalog(t))
	last := len(lines) - 1
	lines[last] = lines[last][:len(lines[last])-20]
	c, err := Load(writeLines(t, t.TempDir(), "torn.snap", lines))
	if err == nil {
		t.Fatal("torn snapshot accepted")
	}
	if c != nil {
		t.Error("torn snapshot returned a partial catalog")
	}
}

func TestReplayRejectsMidFileCorruption(t *testing.T) {
	lines := saveLines(t, twoFeatureCatalog(t))
	// Flip a byte inside the first record's payload.
	lines[0] = strings.Replace(lines[0], `"op":"put"`, `"op":"pXt"`, 1)
	if _, err := Load(writeLines(t, t.TempDir(), "corrupt.snap", lines)); err == nil {
		t.Error("mid-file corruption accepted")
	}
}

func TestReplayRejectsBadChecksumMidFile(t *testing.T) {
	lines := saveLines(t, twoFeatureCatalog(t))
	// Zero the first line's checksum.
	lines[0] = "00000000" + lines[0][8:]
	if _, err := Load(writeLines(t, t.TempDir(), "badsum.snap", lines)); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Errorf("checksum corruption error = %v", err)
	}
}

// TestCompactAndLoad loads a record file holding many redundant puts of
// one feature and checks that re-saving it compacts to one record per
// feature.
func TestCompactAndLoad(t *testing.T) {
	dir := t.TempDir()
	var lines []string
	f := feat("a.csv", "x")
	for i := 0; i < 50; i++ {
		line, err := encodeRecord(logRecord{Op: "put", Feature: f})
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, string(line))
	}
	line, err := encodeRecord(logRecord{Op: "put", Feature: feat("b.csv", "y")})
	if err != nil {
		t.Fatal(err)
	}
	path := writeLines(t, dir, "catalog.snap", append(lines, string(line)))

	before, _ := LogSize(path)
	c, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := Save(path, c); err != nil {
		t.Fatal(err)
	}
	after, _ := LogSize(path)
	if after >= before {
		t.Errorf("re-save did not compact: %d -> %d", before, after)
	}
	again, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if again.Len() != 2 {
		t.Errorf("post-compact Len = %d, want 2", again.Len())
	}
}

func TestSaveLoadSnapshot(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.log")
	c := New()
	for i := 0; i < 20; i++ {
		if err := c.Upsert(feat(fmt.Sprintf("d%02d.csv", i), "salinity", "temp")); err != nil {
			t.Fatal(err)
		}
	}
	if err := Save(path, c); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != c.Len() {
		t.Fatalf("Len = %d, want %d", back.Len(), c.Len())
	}
	for _, id := range c.IDs() {
		orig, _ := c.Get(id)
		got, ok := back.Get(id)
		if !ok {
			t.Fatalf("feature %s missing", id)
		}
		if got.Path != orig.Path || len(got.Variables) != len(orig.Variables) {
			t.Errorf("feature %s corrupted in round trip", id)
		}
		if !got.Time.Start.Equal(orig.Time.Start) {
			t.Errorf("feature %s time corrupted", id)
		}
	}
	// A snapshot is a headerless checkpoint: one put record per feature
	// and no meta record.
	data, _ := os.ReadFile(path)
	if n := strings.Count(string(data), "\n"); n != c.Len() || strings.Contains(string(data), `"op":"meta"`) {
		t.Errorf("snapshot has %d lines (want %d) or a meta record", n, c.Len())
	}
}

func TestLogSizeMissing(t *testing.T) {
	n, err := LogSize(filepath.Join(t.TempDir(), "nope"))
	if err != nil || n != 0 {
		t.Errorf("LogSize missing = %d, %v", n, err)
	}
}

func BenchmarkLoad1000(b *testing.B) {
	dir := b.TempDir()
	path := filepath.Join(dir, "bench.log")
	c := New()
	for i := 0; i < 1000; i++ {
		_ = c.Upsert(feat(fmt.Sprintf("d%04d.csv", i), "salinity", "temp"))
	}
	if err := Save(path, c); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Load(path); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSaveLoadShardedCatalog drives the full persistence round trip
// over a many-shard catalog with content-rich features: Save walks the
// sharded snapshot's merged All() (so the log is ID-ordered regardless
// of the partition), and Load must reconstruct every feature with
// content equality — into a catalog with a *different* shard count,
// since the log format is partition-independent.
func TestSaveLoadShardedCatalog(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sharded.log")
	c := NewSharded(5)
	for i := 0; i < 40; i++ {
		if err := c.Upsert(deltaFeature(i, i%3)); err != nil {
			t.Fatal(err)
		}
	}
	if err := Save(path, c); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != c.Len() {
		t.Fatalf("Len = %d, want %d", back.Len(), c.Len())
	}
	// Saving the loaded catalog again must produce identical bytes: the
	// round trip is lossless and the log order is partition-independent.
	path2 := filepath.Join(dir, "resaved.log")
	if err := Save(path2, back); err != nil {
		t.Fatal(err)
	}
	b1, _ := os.ReadFile(path)
	b2, _ := os.ReadFile(path2)
	if string(b1) != string(b2) {
		t.Fatal("re-saved log differs from original")
	}
	for _, id := range c.IDs() {
		orig, _ := c.Get(id)
		got, ok := back.Get(id)
		if !ok {
			t.Fatalf("feature %s missing after round trip", id)
		}
		if !orig.ContentEquals(got) {
			t.Errorf("feature %s content differs after round trip", id)
		}
		if !orig.ScannedAt.Equal(got.ScannedAt) {
			t.Errorf("feature %s ScannedAt differs after round trip", id)
		}
	}
}

// TestReplayNeverHalfLoads pins the all-or-nothing contract: a snapshot
// with a flipped checksum or a truncated record anywhere must be
// rejected with a nil catalog — corruption can surface no partially
// applied state for a caller to serve by accident.
func TestReplayNeverHalfLoads(t *testing.T) {
	dir := t.TempDir()
	c := New()
	for i := 0; i < 3; i++ {
		if err := c.Upsert(feat(fmt.Sprintf("d%d.csv", i), "salinity")); err != nil {
			t.Fatal(err)
		}
	}
	lines := saveLines(t, c)

	// Flip one checksum hex digit on the middle record.
	flipped := append([]string(nil), lines...)
	if flipped[1][0] == '0' {
		flipped[1] = "1" + flipped[1][1:]
	} else {
		flipped[1] = "0" + flipped[1][1:]
	}
	back, err := Load(writeLines(t, dir, "flipped.snap", flipped))
	if err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Errorf("flipped checksum: err = %v", err)
	}
	if back != nil {
		t.Error("flipped checksum returned a half-loaded catalog")
	}

	// Truncate the middle record but keep its newline, so a full record
	// still follows.
	truncated := append([]string(nil), lines...)
	truncated[1] = truncated[1][:len(truncated[1])/2] + "\n"
	back, err = Load(writeLines(t, dir, "truncated.snap", truncated))
	if err == nil {
		t.Error("mid-file truncated record accepted")
	}
	if back != nil {
		t.Error("truncated record returned a half-loaded catalog")
	}

	// Control: the intact lines load all three features.
	back, err = Load(writeLines(t, dir, "intact.snap", lines))
	if err != nil || back.Len() != 3 {
		t.Fatalf("intact snapshot: len=%v err=%v", back, err)
	}
}
