#!/bin/sh
# check.sh — the repo's full verification gate.
#
# Runs formatting, guards that keep one durable file-replace
# implementation, one way into the store and one way to create a range,
# every store read decoding names through the store's dictionary,
# one place that holds the buffer pool for a batch,
# a log that is rewound rather than truncated and synced in one place,
# a page file synced only by a checkpoint's background I/O step,
# vet, build, the full test suite, the race detector over
# the concurrency-sensitive packages, a short fuzz of the xpath executors
# against each other and of shape-keyed plans against fresh ones, of the xquery evaluator, of the range cursor
# against the reference store, of record placement against a slice model,
# of the journal against its model, of
# the XML scanner against the one it replaced and of the token codec in
# both name forms, and the benchmark module's
# smoke test
# (benchmark/ is a module of its own, so ./... does not reach it). Exits
# non-zero on the first failure. CI and pre-commit hooks should call exactly
# this script.
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== one durable-replace helper (os.Rename only in internal/wal/replace.go)"
if git grep -n 'os\.Rename' -- '*.go' ':!*_test.go' ':!internal/wal/replace.go'; then
    echo "use wal.ReplaceFile instead of a hand-rolled tmp+fsync+rename" >&2
    exit 1
fi

echo "== one way into the store, one way to make a range (internal/core: s.beginOp( only in readOp and writeOp; encodeRangeRecord( only in placeRange and writeRangeRecord)"
# only_in PATTERN FUNCS [PATHSPEC] fails when a non-test line holding the
# fixed string PATTERN, in internal/core unless PATHSPEC names other files,
# sits in a function whose header does not match the awk regex FUNCS. git
# grep -p prints each match's enclosing function header (file=N=...) before
# it; the declaration of PATTERN's own function is skipped.
only_in() {
    git grep -n -p -F -e "$1" -- "${3:-internal/core/*.go}" ':!*_test.go' | awk -v pat="$1" -v funcs="$2" '
        $0 == "--" { next }
        /^[^:=]*=[0-9]+=/ { header = $0; next }
        { line = $0; sub(/^[^:]*:[0-9]+:/, "", line) }
        index(line, "func " pat) == 1 { next }
        header !~ funcs { print; bad = 1 }
        END { exit bad }'
}
if ! only_in 's.beginOp(' '[)] (readOp|writeOp)[(]'; then
    echo "enter the store through readOp or writeOp, not beginOp" >&2
    exit 1
fi
if ! only_in 'encodeRangeRecord(' '[)] (placeRange|writeRangeRecord)[(]'; then
    echo "create a range with placeRange (or rewrite one with writeRangeRecord)" >&2
    exit 1
fi

echo "== names decoded through the store's dictionary (non-test internal/core and internal/xpath call no inline-only token.Decode(, token.DecodeAll( or token.View()"
if git grep -n -e 'token\.Decode(' -e 'token\.DecodeAll(' -e 'token\.View(' -- 'internal/core/*.go' 'internal/xpath/*.go' ':!*_test.go'; then
    echo "decode store bytes with the store's Dict() (s.dict in core): the package-level decoders read inline names only" >&2
    exit 1
fi

echo "== one batch hold (BeginHold/EndHold only in internal/core/batch.go and the pool itself)"
if git grep -n -e '\.BeginHold(' -e '\.EndHold(' -- '*.go' ':!*_test.go' ':!internal/core/batch.go' ':!internal/pagestore/bufferpool.go'; then
    echo "hold the buffer pool only through Store.Update (internal/core/batch.go)" >&2
    exit 1
fi

echo "== a log rewound, not truncated, and synced in one place (internal/wal: .Truncate( only in Close, Open and rewind; Fdatasync only in datasync_linux.go; wal.Sync only in syncLog)"
if ! only_in '.Truncate(' ' (Close|Open|OpenWithOptions|rewind)[(]' 'internal/wal/*.go'; then
    echo "a checkpoint rewinds the log (rewind, which alone shrinks an outgrown file); only Close and Open may truncate it otherwise" >&2
    exit 1
fi
if git grep -n 'Fdatasync' -- '*.go' ':!internal/wal/datasync_linux.go'; then
    echo "sync the log through logFile.Sync, whose datasync lives in internal/wal/datasync_linux.go" >&2
    exit 1
fi
if ! only_in 'wal.Sync' '[)] syncLog[(]' 'internal/wal/*.go'; then
    echo "sync the log with syncLog, which counts every log fsync" >&2
    exit 1
fi

echo "== the page file synced only by a checkpoint's I/O step (internal/wal: inner.Sync only in writeCheckpoint)"
if ! only_in 'inner.Sync' '[)] writeCheckpoint[(]' 'internal/wal/*.go'; then
    echo "fsync the page file only in writeCheckpoint, which runs without mu or the leader section" >&2
    exit 1
fi

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

echo "== go test"
go test ./...

echo "== go test -race (core incl. the Update batches beside readers and writers, fault, wal incl. background checkpoints beside committers and readers, pagestore, recover, budget, replica, server incl. inserts and reads over several connections whose request buffers are reused, failover, retryx, xpath, xquery)"
go test -race ./internal/core ./internal/fault ./internal/wal ./internal/pagestore ./internal/recover ./internal/budget ./internal/replica ./internal/server ./internal/failover ./internal/retryx ./internal/xpath ./internal/xquery

echo "== go test -race (root-package stress incl. cold file-backed readers beside a splitting writer, chaos soak, overload paths, an open batch beside a flushing writer)"
go test -race -run 'Stress|Concurrent|Chaos|Overload|Deadline|Batch' .

echo "== go test -race (partition chaos: net faults, kill -9 primary, fleet + automatic failover; crash sweeps of the durable-replace helper and of backup; the WAL reference model and the crashes a recycled log must survive; parent-era logs and segments)"
go test -race -run 'TestPartitionChaos|TestNetChaos|TestFleet|TestFailover|TestReplaceFileCrashSweep|TestBackupCrashMatrix|TestWALModel|TestCrashAfterRewindKeepsCheckpoint|TestTornBatchOverAlignedLap|TestCloseLeavesEmptyLog|TestParentEraLogAndSegments' ./internal/server ./internal/fault ./internal/wal ./internal/recover ./internal/replica

echo "== go test -fuzz (xpath, xquery: 10s per target, so the differential checks, the shape-keyed plans and the FLWOR loop meet fresh inputs, not only the seed corpus)"
go test -run '^$' -fuzz FuzzXPathParser -fuzztime 10s ./internal/xpath
go test -run '^$' -fuzz FuzzScanProgramTokens -fuzztime 10s ./internal/xpath
go test -run '^$' -fuzz FuzzValueTable -fuzztime 10s ./internal/xpath
go test -run '^$' -fuzz FuzzPlanShape -fuzztime 10s ./internal/xpath
go test -run '^$' -fuzz FuzzXQueryParser -fuzztime 10s ./internal/xquery

echo "== go test -fuzz (core: 10s per target — cursor reads vs the reference store under splits and merges; node XML from stored bytes vs the old serializer)"
go test -run '^$' -fuzz FuzzCursorDifferential -fuzztime 10s ./internal/core
go test -run '^$' -fuzz FuzzAppendNodeXML -fuzztime 10s ./internal/core

echo "== go test -fuzz (pagestore: 10s — record placements of every kind, inline and spilled, against a slice model that follows every reported move)"
go test -run '^$' -fuzz FuzzRecordStore -fuzztime 10s ./internal/pagestore

echo "== go test -fuzz (wal: 10s — journal scripts with crashes and held checkpoints begun and finished between commits and frees, against the reference model)"
go test -run '^$' -fuzz FuzzWALModel -fuzztime 10s ./internal/wal

echo "== go test -fuzz (xmltok: 10s per target — the scanner's accepted output round-trips; the scanner vs the reference scanner it replaced, from strings and from a reader that crosses a refill at every token; the token codec on arbitrary bytes and dictionaries, and the scanner's output through it inline and by id)"
go test -run '^$' -fuzz 'FuzzParse$' -fuzztime 10s ./internal/xmltok
go test -run '^$' -fuzz FuzzScannerDifferential -fuzztime 10s ./internal/xmltok
go test -run '^$' -fuzz FuzzTokenCodec -fuzztime 10s ./internal/xmltok

echo "== benchmark smoke (nested module: every layer probe against the current internal/* API)"
(cd benchmark && go test ./...)

echo "ok: all checks passed"
