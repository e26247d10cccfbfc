// WAL segment archiving: every committed batch can be preserved as a
// numbered segment file, turning the log from a crash-recovery scratchpad
// into a replayable history. A base backup plus the segments after its LSN
// reconstruct the store at any archived commit — point-in-time restore.
//
// A segment holds exactly the batch's log bytes (page and delta records plus
// the commit record), so the same parser validates both. A delta in a
// segment is resolved against whatever holds the page's image as of the
// previous commit: the follower's page file, or a restore's image. A
// follower's own archive holds the pages it applied as full images.
package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/pagestore"
)

// segmentSuffix names archived batch files: <16-hex-digit LSN>.seg.
const segmentSuffix = ".seg"

// SegmentFileName returns the archive file name for a commit LSN.
func SegmentFileName(lsn uint64) string {
	return fmt.Sprintf("%016x%s", lsn, segmentSuffix)
}

// MaxArchivedLSN scans an archive directory for the highest segment number.
// A missing directory reads as empty (LSN 0).
func MaxArchivedLSN(dir string) (uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	var max uint64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, segmentSuffix) {
			continue
		}
		lsn, err := strconv.ParseUint(strings.TrimSuffix(name, segmentSuffix), 16, 64)
		if err != nil {
			continue
		}
		if lsn > max {
			max = lsn
		}
	}
	return max, nil
}

// WriteSegment durably writes one batch's log bytes as segment `lsn`,
// creating the directory if needed. Rewriting an existing segment is fine:
// recovery re-archives replayed batches, and the bytes are identical.
// Besides the commit path, replication followers use it to keep a local
// copy of every segment they apply (EncodeSegment's full images), so a
// promoted follower owns its whole point-in-time history.
func WriteSegment(dir string, lsn uint64, batch []byte, wrap func(File) File) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, SegmentFileName(lsn))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	sf := wrapFile(f, wrap)
	if _, err := sf.WriteAt(batch, 0); err != nil {
		sf.Close()
		return err
	}
	if err := sf.Sync(); err != nil {
		sf.Close()
		return err
	}
	return sf.Close()
}

// DropSegmentsAbove removes every archived segment numbered above lsn. The
// commit path never needs it — a segment is written only after its batch is
// durable — but a promoting replica does: local copies of segments it
// fetched and never applied sit above its fence, and a restore must not
// replay them over the new generation's commits. Removal failures are
// reported but the sweep continues; a missing directory is an empty archive.
func DropSegmentsAbove(dir string, lsn uint64) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	var first error
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, segmentSuffix) {
			continue
		}
		n, err := strconv.ParseUint(strings.TrimSuffix(name, segmentSuffix), 16, 64)
		if err != nil {
			continue
		}
		if n > lsn {
			if rerr := os.Remove(filepath.Join(dir, name)); rerr != nil && first == nil {
				first = rerr
			}
		}
	}
	return first
}

// SegmentInfo describes one archived segment file.
type SegmentInfo struct {
	LSN   uint64
	Bytes int64
	Name  string
}

// Segments lists the archived segments in dir. A missing directory reads
// as an empty archive. Non-segment files are ignored.
//
// The result is guaranteed strictly ordered: sorted by LSN ascending with
// no duplicates, whatever order the filesystem returned the directory
// entries in — tailing consumers (replication followers, restore) rely on
// out[i].LSN < out[i+1].LSN to apply segments in commit order. Two
// differently-named files parsing to the same LSN (a hand-renamed
// "1.seg" next to the canonical zero-padded name, say) make the archive
// ambiguous — which bytes are commit 1? — so Segments fails instead of
// letting a consumer pick one arbitrarily. Ordering says nothing about
// contiguity: use Contiguous to clip a listing to the gap-free run a
// tailing consumer may safely apply.
func Segments(dir string) ([]SegmentInfo, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var out []SegmentInfo
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, segmentSuffix) {
			continue
		}
		lsn, err := strconv.ParseUint(strings.TrimSuffix(name, segmentSuffix), 16, 64)
		if err != nil {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return nil, err
		}
		out = append(out, SegmentInfo{LSN: lsn, Bytes: info.Size(), Name: name})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].LSN < out[j].LSN })
	for i := 1; i < len(out); i++ {
		if out[i].LSN == out[i-1].LSN {
			return nil, fmt.Errorf("wal: archive %s: segments %s and %s both claim LSN %d",
				dir, out[i-1].Name, out[i].Name, out[i].LSN)
		}
	}
	return out, nil
}

// SegmentsAfter lists the archived segments with LSN strictly greater than
// after, sorted ascending — the poll primitive of the segment-watch API a
// replication follower tails the archive with. The same ordering and
// no-duplicate guarantees as Segments apply.
func SegmentsAfter(dir string, after uint64) ([]SegmentInfo, error) {
	segs, err := Segments(dir)
	if err != nil {
		return nil, err
	}
	i := sort.Search(len(segs), func(i int) bool { return segs[i].LSN > after })
	return segs[i:], nil
}

// Contiguous clips a sorted segment listing to the longest prefix forming
// the gap-free run after+1, after+2, ... — the segments a tailing consumer
// may apply in order without skipping a commit. An empty result with a
// non-empty input means the next needed segment (after+1) is not present:
// either it has not been archived yet, or it was pruned and the consumer
// has fallen off the retained history.
func Contiguous(segs []SegmentInfo, after uint64) []SegmentInfo {
	next := after + 1
	for i, s := range segs {
		if s.LSN != next {
			return segs[:i]
		}
		next++
	}
	return segs
}

// ArchiveUsage totals the archive directory: segment count and bytes on
// disk. Operators watch this to see retention pressure before the disk
// fills; it is surfaced through Store.Stats.
func ArchiveUsage(dir string) (segments int, bytes int64, err error) {
	segs, err := Segments(dir)
	if err != nil {
		return 0, 0, err
	}
	for _, s := range segs {
		bytes += s.Bytes
	}
	return len(segs), bytes, nil
}

// PruneSegmentsBelow removes every archived segment with LSN strictly below
// keepFrom, returning how many segments and bytes were reclaimed. Segments
// at or above keepFrom are untouched. The caller is responsible for picking
// a safe keepFrom — a base backup at LSN B needs the segments above B to
// roll forward, so keepFrom must not exceed B+1 (the CLI's prune command
// enforces this against backup sidecars). A missing directory is an empty
// archive. Removal stops at the first error, reporting what was reclaimed
// up to that point.
func PruneSegmentsBelow(dir string, keepFrom uint64) (removed int, bytes int64, err error) {
	segs, err := Segments(dir)
	if err != nil {
		return 0, 0, err
	}
	for _, s := range segs {
		if s.LSN >= keepFrom {
			break
		}
		if rerr := os.Remove(filepath.Join(dir, s.Name)); rerr != nil {
			return removed, bytes, rerr
		}
		removed++
		bytes += s.Bytes
	}
	return removed, bytes, nil
}

// PageImage is one page write recovered from a segment or log.
type PageImage struct {
	ID   pagestore.PageID
	Data []byte
}

// EncodeSegment encodes pages as one batch of full images committed at lsn.
// A follower archives what it applied this way: replaying its local copy
// then never depends on what its page file holds.
func EncodeSegment(pages []PageImage, lsn uint64) []byte {
	var out []byte
	for _, p := range pages {
		out = appendRecord(out, recPage, uint32(p.ID), p.Data)
	}
	return appendCommit(out, len(pages), lsn)
}

// ReadSegment parses one archived segment file: its full page images, each
// delta applied to the image base fills in, and the commit LSN it carries.
// A torn, truncated or multi-batch segment is an error — segments are
// written whole and fsynced, so damage means the archive cannot be trusted
// for restore.
func ReadSegment(path string, pageSize int, base func(pagestore.PageID, []byte) error) ([]PageImage, uint64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	return ParseSegment(filepath.Base(path), data, pageSize, base)
}

// ParseSegment validates raw segment bytes (as fetched by a replication
// transport, which may not have a local file to point ReadSegment at) and
// returns the full page images and commit LSN. name labels errors. Every
// record CRC is checked and exactly one complete batch must be present; a
// short or torn fetch therefore fails here rather than applying half a
// commit. A delta record is applied to the page's image as of the previous
// commit, which base copies into its buffer: a follower reads it from its
// page file, a restore from its image in memory. A base that is not that
// image yields a page that fails its checksum, never a silent hybrid.
// Segments holding only full images never call base.
func ParseSegment(name string, data []byte, pageSize int, base func(pagestore.PageID, []byte) error) ([]PageImage, uint64, error) {
	pages, lsn, next, err := readBatch(data, 0, pageSize, 0, base)
	if err != nil {
		return nil, 0, fmt.Errorf("wal: segment %s: %w", name, err)
	}
	if next != len(data) {
		return nil, 0, fmt.Errorf("wal: segment %s: %d trailing bytes after commit", name, len(data)-next)
	}
	return pages, lsn, nil
}

// ParseLog scans raw sidecar-log bytes and returns the newest full image
// of every page its complete batches hold (later batches win, deltas
// resolved against earlier images in the log) and the last commit LSN
// seen. A torn tail, and everything from the first batch out of LSN
// sequence on (an earlier lap's bytes), is silently discarded, mirroring
// recovery. Online backup uses this to apply the "WAL barrier": a
// shared-lock reader folds in batches a concurrent writer has made durable
// but not yet applied to the page file.
func ParseLog(data []byte, pageSize int) (map[pagestore.PageID][]byte, uint64, error) {
	return replayLog(data, pageSize, nil)
}
