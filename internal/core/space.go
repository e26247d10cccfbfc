package core

import (
	"context"

	"repro/internal/pagestore"
)

// Space reports where the store's pages go and how full its record pages
// are, from one read of every page (see pagestore.InspectSpace). It reads
// the whole page file, so it is for tools, not for a server's request path.
func (s *Store) Space() (sp pagestore.Space, err error) {
	err = s.readOp(context.Background(), func(*rangeCursor) error {
		sp, err = pagestore.InspectSpace(s.pool, s.recs.MetaPage())
		return err
	})
	return sp, err
}
