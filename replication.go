package metamess

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"

	"metamess/internal/catalog"
)

// Replication: a durable system's publish journal is already a
// totally-ordered, checksummed stream of generation-stamped deltas, so
// a leader can ship it verbatim and a follower can apply it through the
// same delta path a local publish uses. The leader side (JournalTail,
// AwaitPublish, CheckpointReader) serves the stream; the follower side
// (ApplyReplicatedFrames, BootstrapFromCheckpoint) consumes it. A
// durable follower journals every applied record into its own store
// with the leader's generation stamps, so a follower restart recovers
// through the ordinary OpenStore path and resumes tailing from its last
// applied generation — no full re-sync.
//
// One deliberate asymmetry: the knowledge-epoch sidecar riding each
// record is journaled by a durable follower but not applied to the
// running process (merging curated knowledge mutates state the query
// expander reads without locking). A follower picks up curated
// knowledge at restart, exactly like a restarted leader; the catalog
// content itself replicates live.

// ErrNotDurable is returned by the replication entry points when the
// system has no data directory: there is no journal to tail or mirror.
var ErrNotDurable = errors.New("metamess: replication requires a data directory (Config.DataDir)")

// JournalTail returns the raw checksummed journal frames for every
// publish after fromGen, the current durable generation, and whether
// the follower must resync from the checkpoint because fromGen predates
// the journals' reach (see catalog.Store.TailFrames). maxBytes bounds
// the response (0 = catalog.DefaultTailMaxBytes).
func (s *System) JournalTail(fromGen uint64, maxBytes int64) (frames []byte, gen uint64, resync bool, err error) {
	if s.store == nil {
		return nil, 0, false, ErrNotDurable
	}
	return s.store.TailFrames(fromGen, maxBytes)
}

// AwaitPublish blocks until the durable generation exceeds after or ctx
// ends, returning the generation seen last — the leader-side long-poll
// primitive behind the journal tail endpoint.
func (s *System) AwaitPublish(ctx context.Context, after uint64) uint64 {
	if s.store == nil {
		return 0
	}
	for {
		// Channel before generation: the append that bumps the generation
		// closes the channel under the same lock, so this order can block
		// only while the generation really is behind.
		ch := s.store.PublishNotify()
		gen := s.store.Generation()
		if gen > after {
			return gen
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return gen
		}
	}
}

// CheckpointReader opens the on-disk checkpoint for streaming to a
// bootstrapping follower. The caller must Close it.
func (s *System) CheckpointReader() (io.ReadCloser, error) {
	if s.store == nil {
		return nil, ErrNotDurable
	}
	return s.store.OpenCheckpoint()
}

// ApplyReplicatedFrames applies a batch of tailed journal frames (raw
// checksummed lines, as returned by a leader's JournalTail) to the
// published catalog, pinning each record to the generation the leader
// stamped. Records at or below the current generation are skipped —
// re-delivery is idempotent. When the system is durable, every applied
// record is journaled locally (with its sidecar) before the next is
// applied, so the follower's own store replays to exactly the replica
// state after a crash. A frame without a trailing newline is a torn
// transfer tail and is dropped, like a torn journal line. Returns the
// number of records applied.
func (s *System) ApplyReplicatedFrames(frames []byte) (int, error) {
	applied := 0
	for len(frames) > 0 {
		i := bytes.IndexByte(frames, '\n')
		if i < 0 {
			break
		}
		line := frames[:i]
		frames = frames[i+1:]
		if len(line) == 0 {
			continue
		}
		rec, err := catalog.DecodeDeltaFrame(string(line))
		if err != nil {
			return applied, err
		}
		if rec.Gen <= s.ctx.Published.Generation() {
			continue
		}
		if err := s.ctx.Published.ApplyDeltaAt(rec.Gen, rec.Changed, rec.Removed); err != nil {
			return applied, err
		}
		if s.store != nil {
			if err := s.store.AppendPublish(rec.Gen, rec.Changed, rec.Removed, rec.Sidecar); err != nil {
				return applied, fmt.Errorf("metamess: journal replicated record: %w", err)
			}
		}
		applied++
	}
	return applied, nil
}

// BootstrapFromCheckpoint replaces the follower's published state with
// the checkpoint streamed from r (a leader's checkpoint endpoint): the
// checkpoint is loaded into a scratch catalog, diffed against the
// current state, and applied as one delta pinned to the checkpoint's
// generation — so even a bootstrap disturbs only the features that
// actually differ, and a durable follower journals it like any other
// replicated record. A checkpoint at or behind the follower's current
// generation applies nothing. Returns the generation reached.
func (s *System) BootstrapFromCheckpoint(r io.Reader) (uint64, error) {
	scratch := catalog.New()
	gen, sidecar, err := catalog.LoadCheckpointFrom(r, scratch)
	if err != nil {
		return 0, err
	}
	cur := s.ctx.Published.Generation()
	if gen <= cur {
		if gen < cur {
			return cur, fmt.Errorf("metamess: checkpoint generation %d behind follower generation %d (diverged leader?)", gen, cur)
		}
		return cur, nil
	}
	changed, removed := s.ctx.Published.DiffTo(scratch)
	if err := s.ctx.Published.ApplyDeltaAt(gen, changed, removed); err != nil {
		return 0, err
	}
	if s.store != nil {
		if err := s.store.AppendPublish(gen, changed, removed, sidecar); err != nil {
			return gen, fmt.Errorf("metamess: journal bootstrap record: %w", err)
		}
	}
	return gen, nil
}
