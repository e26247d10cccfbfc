// Package axml is the public API of the adaptive XML store — a Go
// reproduction of "Adaptive XML Storage or The Importance of Being Lazy"
// (Duda & Kossmann, ETH Zurich).
//
// The store keeps an XML instance as a flat token sequence partitioned into
// Ranges (variable-sized units created by the application's insert pattern),
// indexes ranges coarsely, and learns exact node positions lazily through a
// bounded partial index. See DESIGN.md for the architecture and the package
// documentation of repro/internal/core for the mechanics.
//
// Quick start:
//
//	st, _ := axml.Open(axml.Config{Mode: axml.RangePartial})
//	defer st.Close()
//	root, _ := axml.LoadXMLString(st, `<orders/>`)
//	frag, _ := axml.ParseFragment(`<order id="1"/>`)
//	st.InsertIntoLast(root, frag)
//	ids, _ := axml.Query(st, `//order[@id="1"]`)
//	xml, _ := st.NodeXMLString(ids[0])
package axml

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/pagestore"
	"repro/internal/token"
	"repro/internal/wal"
	"repro/internal/xmltok"
	"repro/internal/xpath"
	"repro/internal/xquery"
)

// Core re-exports: the store and its configuration.
type (
	// Store is an adaptive XML store instance.
	Store = core.Store
	// Config selects the index mode, storage geometry and policies.
	Config = core.Config
	// Stats is a snapshot of store counters.
	Stats = core.Stats
	// NodeID identifies a stored node.
	NodeID = core.NodeID
	// IndexMode selects the indexing configuration.
	IndexMode = core.IndexMode
	// Token is one enriched SAX event of the flat XML representation.
	Token = core.Token
	// Item is a token paired with the id of the node it starts.
	Item = core.Item
	// Batch is the handle Store.Update passes its function: updates that
	// commit together, as one WAL batch, or not at all.
	Batch = core.Batch
	// Space is Store.Space's page-level account of the page file.
	Space = pagestore.Space
)

// Index modes (the experimental axis of the paper's Table 5).
const (
	// RangeOnly maintains only the coarse range index.
	RangeOnly = core.RangeOnly
	// RangePartial adds the lazy partial index (the paper's proposal).
	RangePartial = core.RangePartial
	// FullIndex eagerly indexes every node (the baseline).
	FullIndex = core.FullIndex
)

// Store errors, re-exported for errors.Is checks.
var (
	ErrNoSuchNode  = core.ErrNoSuchNode
	ErrNotElement  = core.ErrNotElement
	ErrBadFragment = core.ErrBadFragment
	ErrClosed      = core.ErrClosed
	// ErrReadOnly is returned by mutating operations after the store has
	// degraded to read-only because corruption was detected.
	ErrReadOnly = core.ErrReadOnly
	// ErrOverloaded is returned when admission control sheds an operation:
	// every slot is busy and the wait queue is full. The operation had no
	// effect; retrying after backoff is safe.
	ErrOverloaded = core.ErrOverloaded
	// ErrCorruptPage is wrapped by any read that hits a page whose checksum
	// does not match its contents.
	ErrCorruptPage = pagestore.ErrCorruptPage
	// ErrStoreLocked is returned by OpenFile/ReopenFile when another process
	// holds the store file's advisory lock.
	ErrStoreLocked = pagestore.ErrStoreLocked
	// ErrReadOnlyFile is returned by mutations on a store opened with
	// ReopenFileReadOnly.
	ErrReadOnlyFile = pagestore.ErrReadOnlyFile
)

// Open creates a fresh store.
func Open(cfg Config) (*Store, error) { return core.Open(cfg) }

// OpenFile creates a store backed by a page file at path. Call Store.Close
// (or Flush) to persist, and ReopenFile to load it again.
func OpenFile(path string, cfg Config) (*Store, error) {
	pager, err := pagestore.OpenFilePager(path, cfg.PageSize)
	if err != nil {
		return nil, err
	}
	cfg.Pager = pager
	s, err := core.Open(cfg)
	if err != nil {
		pager.Close() // release the advisory lock on failure
		return nil, err
	}
	return s, nil
}

// ReopenFile reloads a store previously written with OpenFile. The meta page
// of a store created by OpenFile on a fresh file is page 1. If a crashed
// journaled session (ReopenFileWAL, repair) left committed batches in the
// WAL sidecar, they are replayed into the page file first — opening around
// them would corrupt the store at the next replay.
func ReopenFile(path string, cfg Config) (*Store, error) {
	if err := replayWAL(path, defaultedPageSize(cfg)); err != nil {
		return nil, err
	}
	pager, err := pagestore.OpenFilePager(path, cfg.PageSize)
	if err != nil {
		return nil, err
	}
	s, err := core.Reopen(cfg, pager, 1)
	if err != nil {
		pager.Close() // release the advisory lock on failure
		return nil, err
	}
	return s, nil
}

// ReopenFileReadOnly reloads a store for reading only, under a shared
// advisory lock: any number of read-only opens (across processes) coexist,
// but a writable open excludes them and vice versa. Every mutating store
// operation returns ErrReadOnly. FullIndex mode cannot open read-only.
//
// Committed batches still in the WAL sidecar — everything since the last
// checkpoint of a journaled store that was not closed cleanly — are read
// through an in-memory overlay: nothing is written, and nothing
// acknowledged is missed.
func ReopenFileReadOnly(path string, cfg Config) (*Store, error) {
	pager, err := wal.OpenReadOnly(path, cfg.PageSize)
	if err != nil {
		return nil, err
	}
	cfg.ReadOnly = true
	s, err := core.Reopen(cfg, pager, 1)
	if err != nil {
		pager.Close()
		return nil, err
	}
	return s, nil
}

// openForScrub opens the raw pages of the store at path for a verification
// pass that must not go through core: read-only, the page file with the WAL
// sidecar overlaid; writable, the page file after the sidecar has been
// replayed into it. Either way the scan sees every committed batch whole —
// the page file alone may hold none, or half, of what the log holds.
func openForScrub(path string, cfg Config) (pagestore.Pager, error) {
	if cfg.ReadOnly {
		return wal.OpenReadOnly(path, cfg.PageSize)
	}
	if err := replayWAL(path, defaultedPageSize(cfg)); err != nil {
		return nil, err
	}
	return pagestore.OpenFilePager(path, cfg.PageSize)
}

// VerifyFile scrubs the store file at path: first every page checksum, raw,
// without opening the store — so corruption is reported page by page even
// when it would prevent the store from opening at all — then, if the scrub
// is clean, the store is opened and Store.Verify checks record chains and
// cross-structure invariants. With cfg.ReadOnly set, both passes run under
// a shared advisory lock and never write, so a store can be verified while
// other read-only processes have it open.
func VerifyFile(path string, cfg Config) error {
	pager, err := openForScrub(path, cfg)
	if err != nil {
		return err
	}
	pool := pagestore.NewBufferPool(pager, 64)
	if errs := pool.Scrub(); len(errs) > 0 {
		pager.Close()
		return errors.Join(errs...)
	}
	if err := pager.Close(); err != nil {
		return err
	}
	var s *Store
	if cfg.ReadOnly {
		s, err = ReopenFileReadOnly(path, cfg)
	} else {
		s, err = ReopenFile(path, cfg)
	}
	if err != nil {
		return fmt.Errorf("open for verify: %w", err)
	}
	defer s.Close()
	return s.Verify()
}

// LoadXML parses a complete XML document from r and appends it to the
// store, returning the id of the root element.
func LoadXML(s *Store, r io.Reader) (NodeID, error) {
	toks, err := xmltok.Parse(r, xmltok.ParseOptions{StripWhitespace: true})
	if err != nil {
		return 0, err
	}
	return s.Append(toks)
}

// LoadXMLString is LoadXML over a string, scanned in place.
func LoadXMLString(s *Store, src string) (NodeID, error) {
	toks, err := xmltok.ParseString(src, xmltok.ParseOptions{StripWhitespace: true})
	if err != nil {
		return 0, err
	}
	return s.Append(toks)
}

// LoadXMLStream parses and loads a document without materializing it:
// tokens flow from the scanner straight into ranges, and the scanner's
// memory is bounded by its read window plus twice the largest token.
// Whitespace-only text nodes are dropped, matching LoadXML; use
// Store.AppendStream with a raw scanner for full fidelity.
func LoadXMLStream(s *Store, r io.Reader) (NodeID, error) {
	sc := xmltok.NewScanner(r)
	next := func() (Token, error) {
		for {
			t, err := sc.Next()
			if err != nil {
				return Token{}, err
			}
			if t.Kind == token.Text && strings.TrimSpace(t.Value) == "" {
				continue
			}
			return t, nil
		}
	}
	return s.AppendStream(next)
}

// ParseFragment parses an XML fragment into tokens suitable for the store's
// insert operations. The string is scanned in place: the returned tokens may
// share memory with src.
func ParseFragment(src string) ([]Token, error) {
	return xmltok.ParseFragmentString(src, xmltok.ParseOptions{StripWhitespace: true})
}

// Query evaluates an XPath expression against the store and returns the
// matching node ids in document order. The ids are valid targets for the
// store's XUpdate operations.
//
// Compiled plans are cached per store (keyed by the expression source) and
// eligible expressions — child/`//` paths with name tests, [@attr='v'] and
// positional predicates, unions thereof — execute as a single pass over the
// raw token sequence without materializing a navigational view.
func Query(s *Store, expr string) ([]NodeID, error) {
	return xpath.QueryIDs(s, expr)
}

// QueryCtx is Query under a context: cancellation and deadlines interrupt
// the evaluation between scan batches.
func QueryCtx(ctx context.Context, s *Store, expr string) ([]NodeID, error) {
	return xpath.QueryIDsCtx(ctx, s, expr)
}

// QueryFirst returns the first node matching expr in document order. The
// scan short-circuits at the first hit, so probing for one node is far
// cheaper than Query on large stores.
func QueryFirst(s *Store, expr string) (NodeID, bool, error) {
	return xpath.QueryFirstCtx(context.Background(), s, expr)
}

// QueryFirstCtx is QueryFirst under a context.
func QueryFirstCtx(ctx context.Context, s *Store, expr string) (NodeID, bool, error) {
	return xpath.QueryFirstCtx(ctx, s, expr)
}

// QueryExists reports whether any node matches expr, stopping at the first
// match.
func QueryExists(s *Store, expr string) (bool, error) {
	return xpath.QueryExistsCtx(context.Background(), s, expr)
}

// QueryExistsCtx is QueryExists under a context.
func QueryExistsCtx(ctx context.Context, s *Store, expr string) (bool, error) {
	return xpath.QueryExistsCtx(ctx, s, expr)
}

// QueryCount returns the number of nodes matching expr, which is a node-set
// expression or count() of any path. For pushdown-eligible expressions the
// count is computed inside the scan without collecting ids.
func QueryCount(s *Store, expr string) (int, error) {
	return xpath.QueryCountCtx(context.Background(), s, expr)
}

// QueryNode evaluates expr against the subtree rooted at anchor, as if that
// subtree were its own document, and returns matching ids in document order.
func QueryNode(s *Store, anchor NodeID, expr string) ([]NodeID, error) {
	return xpath.QueryNodeIDsCtx(context.Background(), s, anchor, expr)
}

// QueryValue evaluates an XPath expression and returns its string value
// (e.g. for count(...) or string(...) expressions).
func QueryValue(s *Store, expr string) (string, error) {
	return xpath.QueryValueCtx(context.Background(), s, expr)
}

// QueryValueCtx is QueryValue under a context.
func QueryValueCtx(ctx context.Context, s *Store, expr string) (string, error) {
	return xpath.QueryValueCtx(ctx, s, expr)
}

// XQuery evaluates an XQuery FLWOR expression against the store and returns
// the result sequence as a token fragment, insertable back into a store.
//
//	toks, _ := axml.XQuery(st, `for $b in //book where $b/price < 50
//	                            return <cheap>{$b/title}</cheap>`)
func XQuery(s *Store, query string) ([]Token, error) {
	return xquery.EvalStore(s, query)
}

// XQueryCtx is XQuery under a context: cancellation is polled per FLWOR
// tuple.
func XQueryCtx(ctx context.Context, s *Store, query string) ([]Token, error) {
	return xquery.EvalStoreCtx(ctx, s, query)
}

// XQueryString evaluates an XQuery expression and serializes the result.
func XQueryString(s *Store, query string) (string, error) {
	return xquery.EvalString(s, query)
}

// XQueryStringCtx is XQueryString under a context.
func XQueryStringCtx(ctx context.Context, s *Store, query string) (string, error) {
	return xquery.EvalStringCtx(ctx, s, query)
}
