package replica

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/pagestore"
	"repro/internal/wal"
)

// replicaState is the follower's durable position: the JSON sidecar at
// <store>.replica. It is the apply path's commit record — AppliedLSN only
// advances after the segment's pages are durably in the store file, so a
// follower killed at any I/O boundary restarts knowing exactly which
// commit its page file is at (or, at worst, one segment ahead of it,
// which the local-archive recovery in Open replays idempotently).
type replicaState struct {
	// PageSize/MetaPage describe the page image, copied from the bootstrap
	// backup's sidecar.
	PageSize int    `json:"page_size"`
	MetaPage uint32 `json:"meta_page"`
	// BaseLSN is the bootstrap backup's commit — the follower's history
	// starts at BaseLSN+1.
	BaseLSN uint64 `json:"base_lsn"`
	// AppliedLSN is the last commit durably applied to the store file.
	AppliedLSN uint64 `json:"applied_lsn"`
	// Promoted fences the replica generation: once set, this store has
	// left the follower role for good. A tailer that finds it refuses to
	// apply anything — old-generation segments arriving after a promotion
	// must never overwrite the new timeline.
	Promoted bool `json:"promoted,omitempty"`
	// FencedLSN records where the promotion cut the shipped history. With
	// the epoch in the failover coordinator's term file, it is the whole
	// record of a hand-over. Older sidecars also carry an "epoch" field, so
	// decoding must keep ignoring unknown fields.
	FencedLSN uint64 `json:"fenced_lsn,omitempty"`
}

// stateSuffix names the follower's durable-position sidecar.
const stateSuffix = ".replica"

// statePath returns the sidecar path for a follower store file.
func statePath(storePath string) string { return storePath + stateSuffix }

// readState loads and sanity-checks the sidecar for storePath.
func readState(storePath string) (replicaState, error) {
	var st replicaState
	data, err := os.ReadFile(statePath(storePath))
	if err != nil {
		return st, err
	}
	if err := json.Unmarshal(data, &st); err != nil {
		return st, fmt.Errorf("replica: state sidecar %s: %w", statePath(storePath), err)
	}
	if st.PageSize < pagestore.MinPageSize {
		return st, fmt.Errorf("replica: state sidecar %s: implausible page size %d", statePath(storePath), st.PageSize)
	}
	if st.AppliedLSN < st.BaseLSN {
		return st, fmt.Errorf("replica: state sidecar %s: applied LSN %d below base %d", statePath(storePath), st.AppliedLSN, st.BaseLSN)
	}
	return st, nil
}

// writeState durably replaces the sidecar, so a crash leaves either the
// previous position or the new one — never a torn sidecar. wrap reaches
// the staged file and the directory fsync, so the crash matrix sweeps
// these boundaries too.
func writeState(storePath string, st replicaState, wrap func(wal.File) wal.File) error {
	data, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	return wal.ReplaceFile(statePath(storePath), wrap, func(f wal.File) error {
		_, err := f.WriteAt(data, 0)
		return err
	})
}
