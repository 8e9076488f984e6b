package catalog

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// The catalog has one on-disk record codec: checksummed JSON records,
// one per line,
//
//	<crc32-hex8> <json-payload>\n
//
// written by encodeRecord and read by scanRecords. Two file kinds use
// it:
//
//   - a checkpoint: an optional {"op":"meta",...} first record stamping
//     the generation and the knowledge-epoch sidecar, then one
//     {"op":"put","feature":{...}} record per feature in ID order. A
//     snapshot written by Save is a headerless checkpoint (generation 0,
//     no sidecar, so no meta record). Checkpoints are written to a
//     temporary file and renamed into place, so any damage — a torn
//     final line included — is an error on load.
//   - a publish journal (journal.go): {"op":"delta",...} records
//     appended by publishes. A torn final line (crash mid-append) is
//     dropped on replay, while corruption anywhere earlier fails loudly.

// logRecord is the payload of one record line. Put records carry a
// Feature; delta records (the publish journal) carry a generation stamp
// plus the published delta and the knowledge-epoch sidecar; meta
// records (checkpoint headers) carry the generation stamp and sidecar
// alone.
type logRecord struct {
	Op      string   `json:"op"`
	Feature *Feature `json:"feature,omitempty"`
	// Gen stamps delta and meta records with the publish generation the
	// record produced (delta) or covers (meta).
	Gen uint64 `json:"gen,omitempty"`
	// Changed and Removed are a delta record's payload: the features the
	// publish upserted and the IDs it retracted.
	Changed []*Feature `json:"changed,omitempty"`
	Removed []string   `json:"removed,omitempty"`
	// Sidecar is the opaque knowledge-epoch state (discovered rules,
	// curator decisions, curated synonyms) serialized by the wrangling
	// layer; the catalog stores and returns it without interpreting it.
	Sidecar json.RawMessage `json:"sidecar,omitempty"`
}

// encodeRecord renders a record as one checksummed line.
func encodeRecord(rec logRecord) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("catalog: encode log record: %w", err)
	}
	line := make([]byte, 0, len(payload)+10)
	line = append(line, fmt.Sprintf("%08x ", crc32.ChecksumIEEE(payload))...)
	line = append(line, payload...)
	line = append(line, '\n')
	return line, nil
}

func decodeLine(line string) (logRecord, error) {
	var rec logRecord
	space := strings.IndexByte(line, ' ')
	if space != 8 {
		return rec, fmt.Errorf("malformed record header")
	}
	var want uint32
	if _, err := fmt.Sscanf(line[:8], "%08x", &want); err != nil {
		return rec, fmt.Errorf("bad checksum field: %w", err)
	}
	payload := line[9:]
	if got := crc32.ChecksumIEEE([]byte(payload)); got != want {
		return rec, fmt.Errorf("checksum mismatch: %08x != %08x", got, want)
	}
	if err := json.Unmarshal([]byte(payload), &rec); err != nil {
		return rec, fmt.Errorf("bad payload: %w", err)
	}
	return rec, nil
}

// errStopScan, returned by a scanRecords callback, ends the scan early
// without error.
var errStopScan = errors.New("catalog: stop scan")

// scanRecords decodes the record stream r line by line, calling fn with
// each record's 1-based line number, raw line (no newline) and decoded
// payload. kind ("journal", "checkpoint") labels errors. With tornTail,
// an undecodable final line is dropped — a crash mid-append — while an
// undecodable line followed by more lines is corruption; without it,
// every undecodable line is an error. fn's errors are returned with the
// line number attached, except errStopScan, which ends the scan with a
// nil error.
func scanRecords(r io.Reader, kind string, tornTail bool, fn func(lineNo int, line string, rec logRecord) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	lineNo := 0
	var pendingErr error
	for sc.Scan() {
		lineNo++
		if pendingErr != nil {
			// A bad line followed by more lines means mid-file corruption.
			return pendingErr
		}
		line := sc.Text()
		rec, err := decodeLine(line)
		if err != nil {
			pendingErr = fmt.Errorf("catalog: %s line %d: %w", kind, lineNo, err)
			if !tornTail {
				return pendingErr
			}
			continue
		}
		if err := fn(lineNo, line, rec); err == errStopScan {
			return nil
		} else if err != nil {
			return fmt.Errorf("catalog: %s line %d: %w", kind, lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("catalog: read %s: %w", kind, err)
	}
	// pendingErr on the very last line is a torn append: tolerated.
	return nil
}

// writeCheckpoint writes a checkpoint file: a meta record stamping the
// generation and sidecar (omitted when both are zero), then one put
// record per feature. The file is fsynced before the function returns;
// callers rename it into place.
func writeCheckpoint(path string, feats []*Feature, gen uint64, sidecar json.RawMessage) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("catalog: checkpoint create: %w", err)
	}
	w := bufio.NewWriter(f)
	write := func(rec logRecord) error {
		line, err := encodeRecord(rec)
		if err != nil {
			return err
		}
		if _, err := w.Write(line); err != nil {
			return fmt.Errorf("catalog: checkpoint write: %w", err)
		}
		return nil
	}
	if gen != 0 || sidecar != nil {
		if err := write(logRecord{Op: "meta", Gen: gen, Sidecar: sidecar}); err != nil {
			f.Close()
			return err
		}
	}
	for _, feat := range feats {
		if err := write(logRecord{Op: "put", Feature: feat}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("catalog: checkpoint flush: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("catalog: checkpoint sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("catalog: checkpoint close: %w", err)
	}
	return nil
}

// loadCheckpoint reads a checkpoint into the catalog and returns its
// generation stamp and sidecar. A missing file is an empty store, and a
// checkpoint without a meta record loads at generation 0.
func loadCheckpoint(path string, into *Catalog) (uint64, json.RawMessage, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return 0, nil, nil
	}
	if err != nil {
		return 0, nil, fmt.Errorf("catalog: open checkpoint: %w", err)
	}
	defer f.Close()
	return LoadCheckpointFrom(f, into)
}

// LoadCheckpointFrom reads a checkpoint record stream (as written by
// the compactor and served by a leader's checkpoint endpoint) into the
// catalog and returns its generation stamp and sidecar. It is
// loadCheckpoint over an arbitrary reader — the follower bootstrap
// path, where the checkpoint arrives over HTTP instead of from disk.
// Checkpoints are written atomically, so unlike journals any corruption
// — including a torn tail — is an error.
func LoadCheckpointFrom(f io.Reader, into *Catalog) (uint64, json.RawMessage, error) {
	var (
		gen     uint64
		sidecar json.RawMessage
	)
	err := scanRecords(f, "checkpoint", false, func(lineNo int, _ string, rec logRecord) error {
		switch rec.Op {
		case "meta":
			if lineNo != 1 {
				return fmt.Errorf("meta record not first")
			}
			gen, sidecar = rec.Gen, rec.Sidecar
		case "put":
			if rec.Feature == nil {
				return fmt.Errorf("put without feature")
			}
			return into.upsertOwned(rec.Feature)
		default:
			return fmt.Errorf("unexpected op %q", rec.Op)
		}
		return nil
	})
	if err != nil {
		return 0, nil, err
	}
	return gen, sidecar, nil
}

// Save persists the catalog as a snapshot at path: a headerless
// checkpoint (one put record per feature, ID order) written beside path
// and atomically renamed over it.
func Save(path string, c *Catalog) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".catalog-save-*")
	if err != nil {
		return fmt.Errorf("catalog: save: %w", err)
	}
	tmp.Close()
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	// Read-only export: iterate the shared snapshot, no per-feature copies.
	if err := writeCheckpoint(tmp.Name(), c.Snapshot().All(), 0, nil); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("catalog: save rename: %w", err)
	}
	syncDir(dir)
	return nil
}

// Load reads a snapshot written by Save (or a store checkpoint) into a
// fresh catalog. A missing file yields an empty catalog; any damage —
// a torn final line included — is an error, never a partial catalog.
func Load(path string) (*Catalog, error) {
	c := New()
	if _, _, err := loadCheckpoint(path, c); err != nil {
		return nil, err
	}
	return c, nil
}

// LogSize returns the byte size of a record file (0 when missing), for
// compaction heuristics and the summarization-ratio experiment.
func LogSize(path string) (int64, error) {
	st, err := os.Stat(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// syncDir fsyncs a directory so a rename within it is durable;
// best-effort (some filesystems refuse directory fsync).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
