package failover

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/wal"
)

// TermState is the durable per-node failover state, and the one place the
// fleet epoch is persisted. It is tiny and written rarely (epoch
// adoptions, vote grants, fencing), but it must survive kill -9 and power
// loss: a node that granted a vote and forgot it could grant the same
// epoch twice, and a fenced ex-primary that forgot it was fenced could
// resurrect and accept writes. The file is written through
// wal.ReplaceFile, like every other sidecar.
type TermState struct {
	// Epoch is the established leadership epoch: the highest epoch this
	// node has seen carried by an elected leader (or won itself). Fencing
	// decisions compare against this, never against VotedEpoch.
	Epoch uint64 `json:"epoch"`
	// VotedEpoch is the highest epoch this node has granted a vote for
	// (including votes for itself). A proposal must exceed it to be granted
	// — the at-most-one-grant-per-epoch rule quorum safety rests on. A
	// granted-but-unestablished epoch never fences anyone: a lone flaky
	// candidate must not be able to depose a healthy primary.
	VotedEpoch uint64 `json:"voted_epoch"`
	// Fenced latches once this node, while acting as primary, observed a
	// higher established epoch: it has been superseded and must never
	// accept writes or ship segments again. Rebuild it as a replica of the
	// new primary to bring it back.
	Fenced bool `json:"fenced,omitempty"`
}

// loadTerm reads the term file. A missing file is a fresh node: epoch 1,
// nothing voted, not fenced.
func loadTerm(path string) (TermState, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return TermState{Epoch: 1, VotedEpoch: 1}, nil
		}
		return TermState{}, err
	}
	var t TermState
	if err := json.Unmarshal(b, &t); err != nil {
		return TermState{}, fmt.Errorf("failover: term file %s: %w", path, err)
	}
	if t.Epoch == 0 || t.VotedEpoch < t.Epoch {
		return TermState{}, fmt.Errorf("failover: term file %s: inconsistent state %+v", path, t)
	}
	return t, nil
}

// saveTerm durably replaces the term file; the rename is the commit point.
func saveTerm(path string, t TermState) error {
	b, err := json.Marshal(t)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return wal.ReplaceFile(path, nil, func(f wal.File) error {
		_, err := f.WriteAt(b, 0)
		return err
	})
}
