package core

import (
	"context"
	"errors"
	"fmt"
)

// Verify scrubs the store's durable state end to end:
//
//   - every allocated page's checksum, read straight from the pager (the
//     buffer pool's clean cache is bypassed, so latent on-disk corruption
//     is found even for cached pages);
//   - the record layer's page chain and every overflow chain (page types,
//     chunk accounting, cycles);
//   - the store's cross-structure invariants (range index vs. records,
//     interval disjointness, token nesting, counters).
//
// All problems found are reported joined, not just the first. Checksum
// failures degrade the store to read-only as a side effect.
//
// Verify counts as one operation for admission control (a full scrub is
// expensive and should not dogpile an overloaded store), but runs to
// completion once admitted — it does not observe the operation deadline.
func (s *Store) Verify() error {
	return s.readOp(context.Background(), func(*rangeCursor) error {
		var errs []error
		for _, e := range s.pool.Scrub() {
			errs = append(errs, fmt.Errorf("scrub: %w", e))
		}
		if e := s.recs.VerifyChains(); e != nil {
			errs = append(errs, fmt.Errorf("record chains: %w", e))
		}
		if e := s.checkInvariantsLocked(); e != nil {
			errs = append(errs, fmt.Errorf("invariants: %w", e))
		}
		return errors.Join(errs...)
	})
}
