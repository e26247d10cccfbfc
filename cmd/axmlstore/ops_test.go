package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	axml "repro"
	recov "repro/internal/recover"
	"repro/internal/wal"
)

// TestCLIStatsJSON pins the machine-readable stats surface: `stats -json`
// must emit one JSON object with the mode plus the admission, memory-budget
// and archive counters that operators alert on.
func TestCLIStatsJSON(t *testing.T) {
	db, xmlPath := writeDoc(t)
	if err := run(db, "partial", []string{"load", xmlPath}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := runOpts(db, "partial", cliOpts{jsonOut: true, out: &buf}, []string{"stats"}); err != nil {
		t.Fatal(err)
	}
	var rep map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("stats -json is not valid JSON: %v\n%s", err, buf.String())
	}
	if rep["mode"] != "range+partial" {
		t.Errorf("mode = %v, want range+partial", rep["mode"])
	}
	for _, key := range []string{"Admission", "Memory", "ArchiveSegments", "ArchiveBytes", "Nodes", "Ranges",
		"WALCommits", "WALSyncs", "WALLogSyncs", "WALCheckpoints", "WALCheckpointFailures", "WALLogBytes", "WALLoggedBytes", "WALCheckpointWaits",
		"ValueIndexHits", "ValueIndexMisses", "ValueIndexFills", "ValueIndexAbandoned", "ValueIndexBytes", "NameIDs", "RangeIndexBytes"} {
		if _, ok := rep[key]; !ok {
			t.Errorf("stats -json lacks %q:\n%s", key, buf.String())
		}
	}
	if n, _ := rep["NameIDs"].(float64); n == 0 {
		t.Errorf("NameIDs = %v after a load, want the document's names", rep["NameIDs"])
	}
	if n, _ := rep["RangeIndexBytes"].(float64); n == 0 {
		t.Errorf("RangeIndexBytes = %v after a load, want the range table's size", rep["RangeIndexBytes"])
	}
	space, ok := rep["Space"].(map[string]any)
	if !ok {
		t.Fatalf("Space is not an object: %v", rep["Space"])
	}
	for _, key := range []string{"PageFileBytes", "LogBytes", "DataPages", "DataFill", "OverflowPages", "OverflowFill", "FreePages"} {
		if _, ok := space[key]; !ok {
			t.Errorf("Space lacks %q:\n%s", key, buf.String())
		}
	}
	for _, key := range []string{"PageFileBytes", "DataPages", "DataFill"} {
		if n, _ := space[key].(float64); n <= 0 {
			t.Errorf("Space.%s = %v after a load, want > 0", key, space[key])
		}
	}
	if f, _ := space["DataFill"].(float64); f > 1 {
		t.Errorf("Space.DataFill = %v, want a share of the data pages", f)
	}
	if _, ok := rep["Placement"].(map[string]any); !ok {
		t.Errorf("stats -json lacks the Placement counters:\n%s", buf.String())
	}
	adm, ok := rep["Admission"].(map[string]any)
	if !ok {
		t.Fatalf("Admission is not an object: %v", rep["Admission"])
	}
	for _, key := range []string{"Admitted", "Queued", "Shed", "Expired"} {
		if _, ok := adm[key]; !ok {
			t.Errorf("Admission lacks %q", key)
		}
	}

	// The human-readable form carries the same three governance lines.
	buf.Reset()
	if err := runOpts(db, "partial", cliOpts{out: &buf}, []string{"stats"}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"admission:", "memory budget:", "archive:", "wal:", "value index:", "space:", "pages:", "placement:"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("text stats lacks %q:\n%s", want, buf.String())
		}
	}
}

// TestCLIStatsRangeGrain: stats says how fine-grained the ranges are — the
// live ranges beside splits/merges, and per 1 000 of the process's inserts
// in -json and, once the process has inserted, in the text. Appended orders
// take consecutive ids, so on small pages they merge where a page fills and
// leave far fewer than one range per insert.
func TestCLIStatsRangeGrain(t *testing.T) {
	db, xmlPath := writeDoc(t)
	if err := run(db, "partial", []string{"load", xmlPath}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := runOpts(db, "partial", cliOpts{jsonOut: true, out: &buf}, []string{"stats"}); err != nil {
		t.Fatal(err)
	}
	var rep map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if v, ok := rep["RangesPer1000Inserts"]; !ok || v != 0.0 {
		t.Errorf("RangesPer1000Inserts = %v (present %v) in a process that inserted nothing, want 0", v, ok)
	}
	buf.Reset()
	if err := runOpts(db, "partial", cliOpts{out: &buf}, []string{"stats"}); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("(%v ranges)", rep["Ranges"]); !strings.Contains(buf.String(), "splits/merges:       0/0 "+want) {
		t.Errorf("text stats lacks the ranges beside splits/merges %q:\n%s", want, buf.String())
	}

	s, err := axml.Open(axml.Config{PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	root, err := axml.LoadXMLString(s, "<orders/>")
	if err != nil {
		t.Fatal(err)
	}
	const inserts = 200
	for i := 0; i < inserts; i++ {
		frag, err := axml.ParseFragment(fmt.Sprintf(`<order id="%d"><item>bolt</item><qty>%d</qty></order>`, i, i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.InsertIntoLast(root, frag); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	per := rangesPer1000(st)
	line := rangeGrain(st)
	t.Logf("%d inserts: %s, %d merges", st.Inserts, line, st.Merges)
	if want := fmt.Sprintf("%d ranges, %.0f per 1 000 inserts", st.Ranges, per); line != want {
		t.Errorf("ranges text %q, want %q", line, want)
	}
	if st.Merges == 0 || per >= 500 {
		t.Errorf("%d appends left %.0f ranges per 1 000 inserts after %d merges: the appends did not merge", inserts, per, st.Merges)
	}
}

// cliValue runs `value <expr>` and returns the printed result.
func cliValue(t *testing.T, db string, opts cliOpts, expr string) string {
	t.Helper()
	var buf bytes.Buffer
	opts.out = &buf
	if err := runOpts(db, "range", opts, []string{"value", expr}); err != nil {
		t.Fatal(err)
	}
	return strings.TrimSpace(buf.String())
}

// TestCLIPruneSafety pins the archive-retention contract end to end:
//   - prune refuses without a roll-forward-capable backup sidecar;
//   - the default is a dry run that removes nothing;
//   - -apply removes only segments the newest backup already covers —
//     never one with LSN above the backup sidecar's — and point-in-time
//     restore across the pruned archive still works;
//   - a NoRollForward sidecar never raises the cutoff.
func TestCLIPruneSafety(t *testing.T) {
	dir := t.TempDir()
	db := filepath.Join(dir, "store.db")
	arch := filepath.Join(dir, "archive")
	backups := filepath.Join(dir, "backups")
	if err := os.MkdirAll(backups, 0o755); err != nil {
		t.Fatal(err)
	}
	xmlPath := filepath.Join(dir, "doc.xml")
	if err := os.WriteFile(xmlPath, []byte(`<orders><order id="1"/></orders>`), 0o644); err != nil {
		t.Fatal(err)
	}
	aopts := cliOpts{archive: arch, out: &bytes.Buffer{}}

	// Prune with no sidecar at all must refuse.
	if err := runOpts(db, "range", aopts, []string{"prune", backups}); err == nil ||
		!strings.Contains(err.Error(), "refusing") {
		t.Fatalf("prune without a backup: %v, want refusal", err)
	}

	// Build history: load, then a few separately-committed inserts.
	if err := runOpts(db, "range", aopts, []string{"load", xmlPath}); err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{`<order id="2"/>`, `<order id="3"/>`} {
		if err := runOpts(db, "range", aopts, []string{"insert-last", "1", frag}); err != nil {
			t.Fatal(err)
		}
	}
	backup := filepath.Join(backups, "b1")
	if err := runOpts(db, "range", aopts, []string{"backup", backup}); err != nil {
		t.Fatal(err)
	}
	meta, err := recov.ReadBackupMeta(backup)
	if err != nil {
		t.Fatal(err)
	}
	// More commits after the backup: these segments must survive any prune.
	for _, frag := range []string{`<order id="4"/>`, `<order id="5"/>`} {
		if err := runOpts(db, "range", aopts, []string{"insert-last", "1", frag}); err != nil {
			t.Fatal(err)
		}
	}
	before, err := wal.Segments(arch)
	if err != nil {
		t.Fatal(err)
	}
	var prunable, needed int
	for _, sg := range before {
		if sg.LSN <= meta.LSN {
			prunable++
		} else {
			needed++
		}
	}
	if prunable == 0 || needed == 0 {
		t.Fatalf("bad fixture: %d prunable, %d post-backup segments", prunable, needed)
	}

	// A NoRollForward sidecar with a huge LSN must not raise the cutoff.
	fake, err := json.Marshal(recov.BackupMeta{PageSize: 8192, Pages: 1, MetaPage: 1,
		LSN: 1 << 40, NoRollForward: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(backups, "fake.meta"), fake, 0o644); err != nil {
		t.Fatal(err)
	}

	// Dry run (the default): report only, nothing removed.
	var out bytes.Buffer
	dry := aopts
	dry.jsonOut, dry.out = true, &out
	if err := runOpts(db, "range", dry, []string{"prune", backups}); err != nil {
		t.Fatal(err)
	}
	var rep axml.PruneReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("prune -json: %v\n%s", err, out.String())
	}
	if rep.Applied {
		t.Error("dry run reported Applied")
	}
	if rep.BackupLSN != meta.LSN {
		t.Errorf("BackupLSN = %d, want %d (NoRollForward sidecar must not win)", rep.BackupLSN, meta.LSN)
	}
	if rep.KeepFrom != meta.LSN+1 {
		t.Errorf("KeepFrom = %d, want %d", rep.KeepFrom, meta.LSN+1)
	}
	if rep.Segments != prunable || rep.Remaining != needed {
		t.Errorf("report %d prunable/%d remaining, want %d/%d", rep.Segments, rep.Remaining, prunable, needed)
	}
	if after, _ := wal.Segments(arch); len(after) != len(before) {
		t.Fatalf("dry run removed segments: %d -> %d", len(before), len(after))
	}

	// Apply. The invariant: no segment with LSN > backup LSN is deleted.
	applyOpts := dry
	applyOpts.apply = true
	out.Reset()
	if err := runOpts(db, "range", applyOpts, []string{"prune", backups}); err != nil {
		t.Fatal(err)
	}
	after, err := wal.Segments(arch)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != needed {
		t.Fatalf("%d segments after prune, want %d", len(after), needed)
	}
	for _, sg := range after {
		if sg.LSN <= meta.LSN {
			t.Errorf("segment LSN %d survived below the cutoff", sg.LSN)
		}
	}
	for _, sg := range before {
		if sg.LSN > meta.LSN {
			if _, err := os.Stat(filepath.Join(arch, wal.SegmentFileName(sg.LSN))); err != nil {
				t.Errorf("prune deleted segment LSN %d, newer than backup LSN %d", sg.LSN, meta.LSN)
			}
		}
	}

	// Point-in-time restore across the pruned archive still reaches the
	// present: the backup plus surviving segments reproduce the live store.
	restored := filepath.Join(dir, "restored.db")
	if err := runOpts(db, "range", aopts, []string{"restore", backup, restored}); err != nil {
		t.Fatal(err)
	}
	want := cliValue(t, db, cliOpts{}, "count(//order)")
	got := cliValue(t, restored, cliOpts{}, "count(//order)")
	if want != "5" || got != want {
		t.Fatalf("restored count = %s, live count = %s, want 5", got, want)
	}
}
