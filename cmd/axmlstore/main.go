// Command axmlstore is a small shell around the adaptive XML store: load an
// XML document into a store file, query it with XPath, apply XUpdate
// operations, and inspect store statistics.
//
// Usage:
//
//	axmlstore -db store.db load doc.xml
//	axmlstore -db store.db query '//order[@id="7"]'
//	axmlstore -db store.db value 'count(//order)'
//	axmlstore -db store.db insert-last <nodeID> '<line><item>bolt</item></line>'
//	axmlstore -db store.db insert-before <nodeID> '<note/>'
//	axmlstore -db store.db delete <nodeID>
//	axmlstore -db store.db read <nodeID>
//	axmlstore -db store.db verify
//	axmlstore -db store.db dump
//	axmlstore -db store.db stats
//
// The -mode flag selects the indexing configuration (range, partial, full)
// when creating a new store file. The -timeout flag bounds the whole
// command: on expiry the process exits nonzero with a clear message instead
// of hanging. The -readonly flag opens the store under a shared lock so
// several processes can read the same file concurrently; use it when a
// writable open fails with "store file locked". The -connect flag runs the
// store commands against a live axmlserved address over its wire protocol
// instead of a local file (with -token for tenant-gated servers).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"

	axml "repro"
)

func main() {
	var (
		db       = flag.String("db", "axml.db", "store file")
		mode     = flag.String("mode", "partial", "index mode for new stores: range, partial, full")
		timeout  = flag.Duration("timeout", 0, "bound the whole command (e.g. 5s); 0 means no limit")
		readonly = flag.Bool("readonly", false, "open the store read-only under a shared lock")
		apply    = flag.Bool("apply", false, "repair: write the rebuilt store (default is a dry run)")
		jsonOut  = flag.Bool("json", false, "verify/repair: print the report as JSON")
		shared   = flag.Bool("shared", false, "backup: copy under a shared lock, coexisting with readers")
		archive  = flag.String("archive", "", "WAL segment archive directory (journals mutating commands; enables point-in-time restore)")
		lsn      = flag.Uint64("lsn", 0, "restore: target commit LSN (0 = newest archived)")
		source   = flag.String("source", "", "replica: source segment archive directory to tail")
		connect  = flag.String("connect", "", "run the command against an axmlserved address instead of a local file")
		token    = flag.String("token", "", "connect: auth token for tenant-gated servers")
		base     = flag.String("base", "", "replica: roll-forward-capable backup to bootstrap a new follower from")
		follow   = flag.Bool("follow", false, "replica: keep tailing the source until interrupted (default is one catch-up pass)")
		interval = flag.Duration("interval", time.Second, "replica: poll interval with -follow")
	)
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	opts := cliOpts{
		timeout: *timeout, readOnly: *readonly,
		apply: *apply, jsonOut: *jsonOut, shared: *shared,
		archive: *archive, lsn: *lsn,
		source: *source, base: *base, follow: *follow, interval: *interval,
		connect: *connect, token: *token,
	}
	if err := runOpts(*db, *mode, opts, args); err != nil {
		fmt.Fprintln(os.Stderr, "axmlstore:", err)
		var ee *exitError
		if errors.As(err, &ee) {
			os.Exit(ee.code)
		}
		os.Exit(1)
	}
}

// exitError carries a process exit code with an error. Verification and
// repair distinguish "the store is damaged" (1) from "the store could not
// be examined at all, or the command was misused" (2); plain errors map
// to 1.
type exitError struct {
	code int
	err  error
}

func (e *exitError) Error() string { return e.err.Error() }
func (e *exitError) Unwrap() error { return e.err }

func exitWith(code int, err error) error {
	if err == nil {
		return nil
	}
	return &exitError{code: code, err: err}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: axmlstore [-db file] [-mode range|partial|full] [-timeout d] [-readonly]
                 [-apply] [-json] [-shared] [-archive dir] [-lsn n]
                 [-connect addr [-token t]] <command> [args]

commands:
  load <file.xml>              load a document into a fresh store
  query <xpath>                print matching node ids and their XML
  value <xpath>                print the expression's string value
  xquery <flwor>               evaluate an XQuery FLWOR expression
  read <id>                    print one node's subtree as XML
  insert-last <id> <xml>       insert fragment as last content of element
  insert-first <id> <xml>      insert fragment as first content of element
  insert-before <id> <xml>     insert fragment before node
  insert-after <id> <xml>      insert fragment after node
  replace <id> <xml>           replace node with fragment
  delete <id>                  delete node (and subtree)
  compact                      merge fragmented ranges (offline coalescing)
  verify                       scrub checksums, chains and invariants
                               (exit 0 clean, 1 corrupt, 2 unreadable; -json for a report)
  repair                       salvage and rebuild a damaged store
                               (dry run by default; -apply writes; -json for a
                               report; pass -archive on an archived store so the
                               rebuild commit lands in the segment history)
  backup <dest>                copy the store to a consistent backup + sidecar
                               (-shared to coexist with read-only openers; pass
                               -archive to make the backup a roll-forward base)
  restore <base> <dest>        materialize a backup (plus -archive segments up
                               to -lsn) as a new store file
  prune <backupsDir>           drop archived WAL segments already covered by
                               the newest backup in backupsDir (dry run by
                               default; -apply removes; -lsn lowers the
                               cutoff; requires -archive)
  replica                      catch a read replica up with its source's
                               segment archive (-source dir; first run needs
                               -base backup to bootstrap; -follow tails until
                               interrupted at -interval; -json for position)
  promote                      end the replica role and open the store
                               read-write, fencing the old generation
  dump                         print the whole store as XML
  stats                        print store statistics (-json for machine use)

With -connect addr, the store commands (query, value, read, insert-*,
replace, delete, load, stats) run against a live axmlserved at addr over
its wire protocol instead of a local file; -token authenticates on
tenant-gated servers, -timeout propagates to the server as the operation
deadline, and two extra commands appear: ping (round-trip check) and
health (readiness view; exit 1 when not ready).

With a comma-separated -connect list (primary plus replicas), the data
commands route through the fleet client: reads go to the freshest
healthy replica and walk on failure, writes carry idempotency tokens
and follow the primary across a failover, and the primary command
prints which endpoint currently holds the write role.

With -archive, mutating commands run write-ahead logged and every commit is
archived as a numbered segment — the raw material of point-in-time restore.
A replica bootstrapped from a roll-forward backup tails that archive and can
be promoted on failover; see the README ops runbook.
`)
}

func parseMode(s string) (axml.IndexMode, error) {
	switch s {
	case "range":
		return axml.RangeOnly, nil
	case "partial":
		return axml.RangePartial, nil
	case "full":
		return axml.FullIndex, nil
	}
	return 0, fmt.Errorf("unknown mode %q", s)
}

// cliOpts carries the flag values into run.
type cliOpts struct {
	timeout  time.Duration
	readOnly bool
	apply    bool
	jsonOut  bool
	shared   bool
	archive  string
	lsn      uint64
	source   string
	base     string
	follow   bool
	interval time.Duration
	connect  string
	token    string
	out      io.Writer // defaults to os.Stdout; tests capture it
}

func (o cliOpts) stdout() io.Writer {
	if o.out != nil {
		return o.out
	}
	return os.Stdout
}

// run executes one CLI command with default options (no timeout, writable).
// It exists so tests and callers without flags stay simple.
func run(db, modeName string, args []string) error {
	return runOpts(db, modeName, cliOpts{}, args)
}

// runOpts executes one CLI command under the -timeout/-readonly options.
// The context deadline is honored twice over: the XUpdate commands' batches
// abort with a typed deadline error, and the outer select abandons any
// command still running at the deadline — so even commands with no natural
// cancellation point (a huge dump, a scan on a cold disk) exit promptly and
// nonzero.
func runOpts(db, modeName string, opts cliOpts, args []string) error {
	ctx := context.Background()
	if opts.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.timeout)
		defer cancel()
	}
	done := make(chan error, 1)
	go func() { done <- runCmd(ctx, db, modeName, opts, args) }()
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
		return fmt.Errorf("%s: timed out after %v", args[0], opts.timeout)
	}
}

// mutating reports whether cmd writes to the store.
func mutating(cmd string) bool {
	switch cmd {
	case "load", "insert-last", "insert-first", "insert-before", "insert-after",
		"replace", "delete", "compact":
		return true
	}
	return false
}

func runCmd(ctx context.Context, db, modeName string, opts cliOpts, args []string) error {
	mode, err := parseMode(modeName)
	if err != nil {
		return err
	}
	cfg := axml.Config{Mode: mode, ReadOnly: opts.readOnly}

	cmd := args[0]
	if opts.connect != "" {
		return cmdConnect(ctx, opts, args)
	}
	if opts.readOnly && mutating(cmd) {
		return fmt.Errorf("%s: store opened with -readonly", cmd)
	}

	if cmd == "load" {
		if len(args) != 2 {
			return fmt.Errorf("load needs an XML file")
		}
		if st, err := os.Stat(db); err == nil && st.Size() > 0 {
			return fmt.Errorf("store %s already exists; remove it first", db)
		}
		var s *axml.Store
		if opts.archive != "" {
			s, err = axml.OpenFileWAL(db, cfg, opts.archive)
		} else {
			s, err = axml.OpenFile(db, cfg)
		}
		if err != nil {
			return openErr(db, err)
		}
		defer s.Close()
		f, err := os.Open(args[1])
		if err != nil {
			return err
		}
		defer f.Close()
		root, err := axml.LoadXMLStream(s, f)
		if err != nil {
			return err
		}
		st := s.Stats()
		fmt.Printf("loaded %s: root id %d, %d nodes, %d tokens, %d ranges\n",
			args[1], root, st.Nodes, st.Tokens, st.Ranges)
		return nil
	}

	if cmd == "fleet" {
		return exitWith(2, fmt.Errorf("fleet status needs -connect with the fleet's addresses"))
	}
	if cmd == "verify" {
		return cmdVerify(db, cfg, opts)
	}
	if cmd == "repair" {
		return cmdRepair(db, cfg, opts)
	}
	if cmd == "backup" {
		if len(args) != 2 {
			return exitWith(2, fmt.Errorf("backup needs a destination path"))
		}
		return cmdBackup(db, args[1], cfg, opts)
	}
	if cmd == "restore" {
		if len(args) != 3 {
			return exitWith(2, fmt.Errorf("restore needs a backup path and a destination path"))
		}
		return cmdRestore(args[1], args[2], opts)
	}
	if cmd == "prune" {
		if len(args) != 2 {
			return exitWith(2, fmt.Errorf("prune needs a backups directory"))
		}
		return cmdPrune(args[1], opts)
	}
	if cmd == "replica" {
		if len(args) != 1 {
			return exitWith(2, fmt.Errorf("replica takes no arguments (use -db, -source, -base)"))
		}
		return cmdReplica(ctx, db, cfg, opts)
	}
	if cmd == "promote" {
		if len(args) != 1 {
			return exitWith(2, fmt.Errorf("promote takes no arguments (use -db)"))
		}
		return cmdPromote(db, cfg, opts)
	}

	var s *axml.Store
	switch {
	case opts.readOnly:
		s, err = axml.ReopenFileReadOnly(db, cfg)
	case opts.archive != "":
		s, err = axml.ReopenFileWAL(db, cfg, opts.archive)
	default:
		s, err = axml.ReopenFile(db, cfg)
	}
	if err != nil {
		return openErr(db, err)
	}
	defer s.Close()

	nodeArg := func(i int) (axml.NodeID, error) {
		if len(args) <= i {
			return 0, fmt.Errorf("%s needs a node id", cmd)
		}
		n, err := strconv.ParseUint(args[i], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("bad node id %q", args[i])
		}
		return axml.NodeID(n), nil
	}
	fragArg := func(i int) ([]axml.Token, error) {
		if len(args) <= i {
			return nil, fmt.Errorf("%s needs an XML fragment", cmd)
		}
		return axml.ParseFragment(args[i])
	}

	switch cmd {
	case "query":
		if len(args) != 2 {
			return fmt.Errorf("query needs an XPath expression")
		}
		ids, err := axml.Query(s, args[1])
		if err != nil {
			return err
		}
		for _, id := range ids {
			xml, err := s.NodeXMLString(id)
			if err != nil {
				return err
			}
			fmt.Printf("%d\t%s\n", id, xml)
		}
		fmt.Fprintf(os.Stderr, "%d node(s)\n", len(ids))
		return nil
	case "value":
		if len(args) != 2 {
			return fmt.Errorf("value needs an XPath expression")
		}
		v, err := axml.QueryValue(s, args[1])
		if err != nil {
			return err
		}
		fmt.Fprintln(opts.stdout(), v)
		return nil
	case "xquery":
		if len(args) != 2 {
			return fmt.Errorf("xquery needs a FLWOR expression")
		}
		out, err := axml.XQueryString(s, args[1])
		if err != nil {
			return err
		}
		fmt.Println(out)
		return nil
	case "read":
		id, err := nodeArg(1)
		if err != nil {
			return err
		}
		xml, err := s.NodeXMLString(id)
		if err != nil {
			return err
		}
		fmt.Println(xml)
		return nil
	case "insert-last", "insert-first", "insert-before", "insert-after", "replace":
		id, err := nodeArg(1)
		if err != nil {
			return err
		}
		frag, err := fragArg(2)
		if err != nil {
			return err
		}
		var newID axml.NodeID
		err = s.Update(ctx, func(b *axml.Batch) error {
			var err error
			switch cmd {
			case "insert-last":
				newID, err = b.InsertIntoLast(id, frag)
			case "insert-first":
				newID, err = b.InsertIntoFirst(id, frag)
			case "insert-before":
				newID, err = b.InsertBefore(id, frag)
			case "insert-after":
				newID, err = b.InsertAfter(id, frag)
			case "replace":
				newID, err = b.ReplaceNode(id, frag)
			}
			return err
		})
		if err != nil {
			return err
		}
		fmt.Printf("ok: new content starts at id %d\n", newID)
		return nil
	case "delete":
		id, err := nodeArg(1)
		if err != nil {
			return err
		}
		if err := s.Update(ctx, func(b *axml.Batch) error {
			return b.DeleteNode(id)
		}); err != nil {
			return err
		}
		fmt.Println("ok")
		return nil
	case "compact":
		merged, err := s.Compact(0)
		if err != nil {
			return err
		}
		if err := s.Flush(); err != nil {
			return err
		}
		st := s.Stats()
		fmt.Printf("merged %d range pairs; %d ranges remain\n", merged, st.Ranges)
		return nil
	case "dump":
		return s.WriteXML(os.Stdout)
	case "stats":
		st := s.Stats()
		sp, err := spaceOf(s, db)
		if err != nil {
			return err
		}
		w := opts.stdout()
		if opts.jsonOut {
			return printJSON(w, statsReport{Mode: s.Mode().String(), Stats: st, RangesPer1000Inserts: rangesPer1000(st), Space: sp})
		}
		fmt.Fprintf(w, "mode:                %s\n", s.Mode())
		fmt.Fprintf(w, "nodes:               %d\n", st.Nodes)
		fmt.Fprintf(w, "tokens:              %d\n", st.Tokens)
		fmt.Fprintf(w, "encoded bytes:       %d\n", st.Bytes)
		fmt.Fprintf(w, "name ids:            %d\n", st.NameIDs)
		fmt.Fprintf(w, "ranges:              %d\n", st.Ranges)
		fmt.Fprintf(w, "range index entries: %d\n", st.RangeIndexEntries)
		fmt.Fprintf(w, "range table bytes:   %d\n", st.RangeIndexBytes)
		fmt.Fprintf(w, "full index entries:  %d\n", st.FullIndexEntries)
		fmt.Fprintf(w, "partial entries:     %d (hits %d, misses %d, evictions %d, invalidations %d)\n",
			st.PartialEntries, st.PartialHits, st.PartialMisses,
			st.PartialEvictions, st.PartialInvalidations)
		fmt.Fprintf(w, "inserts/deletes:     %d/%d\n", st.Inserts, st.Deletes)
		fmt.Fprintf(w, "splits/merges:       %d/%d (%s)\n", st.Splits, st.Merges, rangeGrain(st))
		fmt.Fprintf(w, "tokens scanned:      %d\n", st.TokensScanned)
		fmt.Fprintf(w, "range bytes read:    %d (in %d node lookups)\n", st.RangeBytesRead, st.NodeLookups)
		fmt.Fprintf(w, "plan cache: entries %d, %d bytes (hits %d, misses %d, evictions %d)\n",
			st.PlanCacheEntries, st.PlanCacheBytes, st.PlanCacheHits,
			st.PlanCacheMisses, st.PlanCacheEvictions)
		fmt.Fprintf(w, "queries: pushdown %d (%d predicates in-scan), fallback %d\n",
			st.PushdownQueries, st.PushdownPredicates, st.FallbackQueries)
		fmt.Fprintf(w, "value index: hits %d, misses %d (fills %d, abandoned %d), %d bytes\n",
			st.ValueIndexHits, st.ValueIndexMisses, st.ValueIndexFills, st.ValueIndexAbandoned, st.ValueIndexBytes)
		fmt.Fprintf(w, "space: page file %d bytes, log %d bytes\n", sp.PageFileBytes, sp.LogBytes)
		fmt.Fprintf(w, "pages: %d data (fill %.3f), %d overflow (fill %.3f), %d index, %d free\n",
			sp.DataPages, sp.DataFill, sp.OverflowPages, sp.OverflowFill, sp.IndexPages, sp.FreePages)
		fmt.Fprintf(w, "placement: %d page splits, %d tails shifted to the next page, %d records moved\n",
			st.Placement.Splits, st.Placement.Shifts, st.Placement.Moves)
		fmt.Fprintf(w, "pool: hits %d, misses %d, evictions %d, flushes %d\n",
			st.Pool.Hits, st.Pool.Misses, st.Pool.Evictions, st.Pool.Flushes)
		fmt.Fprintf(w, "admission: admitted %d, queued %d, shed %d, expired %d (in flight %d, waiting %d)\n",
			st.Admission.Admitted, st.Admission.Queued, st.Admission.Shed,
			st.Admission.Expired, st.Admission.InFlight, st.Admission.Waiting)
		fmt.Fprintf(w, "memory budget: limit %d, used %d (pool %d, partial %d, checkpoints %d), evictions %d\n",
			st.Memory.Limit, st.Memory.Used, st.Memory.PoolBytes,
			st.Memory.PartialBytes, st.Memory.CheckpointBytes, st.Memory.Evictions)
		fmt.Fprintf(w, "archive: %d segment(s), %d bytes, high-water LSN %d\n",
			st.ArchiveSegments, st.ArchiveBytes, st.ArchiveLSN)
		fmt.Fprintf(w, "wal: commits %d, fsyncs %d (%d log), checkpoints %d (%d failed, %d commits waited), log %d bytes (%d appended)\n",
			st.WALCommits, st.WALSyncs, st.WALLogSyncs, st.WALCheckpoints, st.WALCheckpointFailures, st.WALCheckpointWaits, st.WALLogBytes, st.WALLoggedBytes)
		fmt.Fprintf(w, "health: read-only %v, degraded %v, budget pressure %.2f%s\n",
			st.Health.ReadOnly, st.Health.Degraded, st.Health.BudgetPressure,
			healthCauseSuffix(st.Health))
		return nil
	default:
		usage()
		return exitWith(2, fmt.Errorf("unknown command %q", cmd))
	}
}

// statsReport is the JSON shape of the stats command: the mode, the raw
// counter snapshot, how fine-grained the ranges are, and the space report.
type statsReport struct {
	Mode string `json:"mode"`
	axml.Stats
	RangesPer1000Inserts float64
	Space                spaceReport
}

// rangesPer1000 is the live ranges per 1 000 inserts this process made, 0
// when it made none: ≈1 000 when every insert keeps a range of its own, about
// half that on a mix of appends and middle inserts once the ranges the
// appends made have merged where their pages filled.
func rangesPer1000(st axml.Stats) float64 {
	if st.Inserts == 0 {
		return 0
	}
	return 1000 * float64(st.Ranges) / float64(st.Inserts)
}

// rangeGrain is the ranges line's text: the live ranges and, when this
// process inserted, how many there are per 1 000 of its inserts.
func rangeGrain(st axml.Stats) string {
	if st.Inserts == 0 {
		return fmt.Sprintf("%d ranges", st.Ranges)
	}
	return fmt.Sprintf("%d ranges, %.0f per 1 000 inserts", st.Ranges, rangesPer1000(st))
}

// spaceReport is where the store's disk bytes go: the two files' sizes and
// the page-level account of the page file (axml.Space), with its fills.
type spaceReport struct {
	PageFileBytes int64
	LogBytes      int64 // the <db>.wal sidecar; 0 when there is none
	axml.Space
	DataFill     float64
	OverflowFill float64
}

// spaceOf reads every page of the store once; stats alone pays for it.
func spaceOf(s *axml.Store, db string) (spaceReport, error) {
	sp, err := s.Space()
	if err != nil {
		return spaceReport{}, fmt.Errorf("space report: %w", err)
	}
	rep := spaceReport{Space: sp, DataFill: sp.DataFill(), OverflowFill: sp.OverflowFill()}
	if fi, err := os.Stat(db); err == nil {
		rep.PageFileBytes = fi.Size()
	}
	if fi, err := os.Stat(db + ".wal"); err == nil {
		rep.LogBytes = fi.Size()
	}
	return rep, nil
}

// cmdPrune drops archived WAL segments already covered by the newest
// roll-forward-capable backup in backupsDir. A dry run (the default) only
// reports; -apply removes. The cutoff never passes the newest backup
// sidecar's LSN, so restore from that backup always has every segment it
// needs.
func cmdPrune(backupsDir string, opts cliOpts) error {
	if opts.archive == "" {
		return exitWith(2, fmt.Errorf("prune: -archive is required (nothing to prune without a segment archive)"))
	}
	rep, err := axml.PruneArchive(opts.archive, backupsDir, opts.lsn, opts.apply)
	if err != nil {
		return exitWith(2, err)
	}
	if opts.jsonOut {
		return printJSON(opts.stdout(), rep)
	}
	out := opts.stdout()
	if rep.Applied {
		fmt.Fprintf(out, "pruned %d segment(s), %d bytes (cutoff LSN %d, backup LSN %d); %d segment(s) remain\n",
			rep.Segments, rep.Bytes, rep.KeepFrom, rep.BackupLSN, rep.Remaining)
	} else {
		fmt.Fprintf(out, "dry run: %d segment(s), %d bytes prunable below LSN %d (backup LSN %d); rerun with -apply to remove\n",
			rep.Segments, rep.Bytes, rep.KeepFrom, rep.BackupLSN)
	}
	return nil
}

// printJSON writes a report as indented JSON.
func printJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// cmdVerify scrubs the store and reports with distinct exit codes: 0 the
// store is clean, 1 it is damaged, 2 it could not be examined at all
// (missing, locked, unreadable).
func cmdVerify(db string, cfg axml.Config, opts cliOpts) error {
	rep, err := axml.VerifyFileReport(db, cfg)
	if rep == nil {
		if errors.Is(err, axml.ErrStoreLocked) {
			return exitWith(2, openErr(db, err))
		}
		return exitWith(2, fmt.Errorf("verify: %w", err))
	}
	if opts.jsonOut {
		if jerr := printJSON(opts.stdout(), rep); jerr != nil {
			return jerr
		}
	}
	if err != nil {
		return exitWith(1, fmt.Errorf("verify failed:\n%w", err))
	}
	if !opts.jsonOut {
		fmt.Fprintln(opts.stdout(), "ok: checksums, record chains and invariants verified")
	}
	return nil
}

// cmdRepair salvages the store; a dry run (the default) only reports.
// Exit codes: 0 the store is clean (or was successfully repaired), 1 a dry
// run found damage, 2 the store could not be examined.
func cmdRepair(db string, cfg axml.Config, opts cliOpts) error {
	if opts.readOnly {
		return exitWith(2, fmt.Errorf("repair: cannot run with -readonly"))
	}
	rep, err := axml.RepairFile(db, cfg, opts.apply, opts.archive)
	if rep == nil {
		if err != nil && errors.Is(err, axml.ErrStoreLocked) {
			return exitWith(2, openErr(db, err))
		}
		return exitWith(2, fmt.Errorf("repair: %w", err))
	}
	if err != nil {
		return exitWith(2, fmt.Errorf("repair: %w", err))
	}
	if opts.jsonOut {
		if jerr := printJSON(opts.stdout(), rep); jerr != nil {
			return jerr
		}
	}
	out := opts.stdout()
	switch {
	case rep.Clean:
		if !opts.jsonOut {
			fmt.Fprintf(out, "clean: %d pages scanned, %d records intact; nothing to repair\n", rep.Pages, rep.Salvaged)
		}
		return nil
	case rep.Applied:
		if !opts.jsonOut {
			fmt.Fprintf(out, "repaired: %d records salvaged, %d lost, %d bad page(s) quarantined\n",
				rep.Salvaged, rep.Lost, len(rep.BadPages))
			for _, iv := range rep.Missing {
				fmt.Fprintf(out, "  lost node ids %d..%d\n", iv.Start, iv.End)
			}
		}
		return nil
	default:
		if !opts.jsonOut {
			fmt.Fprintf(out, "dry run: %d bad page(s), %d records salvageable, %d lost; rerun with -apply to rebuild\n",
				len(rep.BadPages), rep.Salvaged, rep.Lost)
		}
		return exitWith(1, fmt.Errorf("repair: store is damaged (dry run; use -apply to rebuild)"))
	}
}

// cmdBackup copies the store into a consistent backup plus sidecar.
func cmdBackup(db, dest string, cfg axml.Config, opts cliOpts) error {
	meta, err := axml.BackupStoreFile(db, dest, cfg, opts.shared, opts.archive)
	if err != nil {
		if errors.Is(err, axml.ErrStoreLocked) {
			return exitWith(2, fmt.Errorf("backup: %w (a writer has the store open; use -shared alongside readers, or in-process Store.BackupTo)", err))
		}
		return err
	}
	fmt.Fprintf(opts.stdout(), "backup: %d pages to %s (LSN %d)\n", meta.Pages, dest, meta.LSN)
	return nil
}

// cmdRestore materializes a backup (plus archived WAL segments up to
// -lsn) as a new store file.
func cmdRestore(base, dest string, opts cliOpts) error {
	info, err := axml.RestoreFile(base, dest, opts.archive, opts.lsn)
	if err != nil {
		return err
	}
	fmt.Fprintf(opts.stdout(), "restored: %d pages, %d segment(s) applied, at LSN %d -> %s\n",
		info.PagesCopied, info.SegmentsApplied, info.FinalLSN, dest)
	return nil
}

// openErr decorates store-open failures with actionable advice: a locked
// store can usually still be read with -readonly.
func openErr(db string, err error) error {
	if errors.Is(err, axml.ErrStoreLocked) {
		return fmt.Errorf("open %s: %w (another process has it open; retry later or read with -readonly)", db, err)
	}
	return fmt.Errorf("open %s: %w (run 'load' first?)", db, err)
}
