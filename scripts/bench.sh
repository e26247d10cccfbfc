#!/bin/sh
# bench.sh — parallel read-path benchmark runner (experiment E8).
#
# Runs the root-package parallel, pushdown and value-index benchmarks at 1,
# 2, 4 and 8 goroutines with allocation accounting and distills the results
# into BENCH_parallel.json (override the path with $1), so nightly runs leave
# a machine-readable scaling trajectory to regress against. AXML_BENCHTIME
# overrides the per-benchmark measuring time (default 1s).
#
# If a previous BENCH_parallel.json exists it becomes the baseline: any
# benchmark present in both runs that regresses more than 15% in ns/op fails
# the script (after the new file is written, so the numbers are inspectable).
# The file records the host's processor count, and a baseline taken on a
# different count (or on none: a file from before the field existed) is
# refused before anything runs — -cpu 4 on two cores is not -cpu 4 on eight.
# Set AXML_BENCH_NOGATE=1 to record a new baseline without the comparison —
# e.g. when moving to different hardware.
set -eu
cd "$(dirname "$0")/.."

out="${1:-BENCH_parallel.json}"
raw=$(mktemp)
base=$(mktemp)
trap 'rm -f "$raw" "$base"' EXIT
have_base=0
nproc=$(getconf _NPROCESSORS_ONLN)
if [ -f "$out" ] && [ -z "${AXML_BENCH_NOGATE:-}" ]; then
    base_nproc=$(sed -n 's/.*"nproc": \([0-9][0-9]*\).*/\1/p' "$out")
    if [ "$base_nproc" != "$nproc" ]; then
        echo "bench: $out was recorded on ${base_nproc:-an unrecorded number of} processors, this host has $nproc;" >&2
        echo "       numbers do not compare across core counts (AXML_BENCH_NOGATE=1 records a new baseline)" >&2
        exit 2
    fi
    cp "$out" "$base"
    have_base=1
fi

go test -run '^$' -bench 'Parallel|ColdCoarse|Pushdown|ValueIndex' -benchmem \
    -cpu 1,2,4,8 -benchtime "${AXML_BENCHTIME:-1s}" . | tee "$raw"

commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
git diff --quiet HEAD 2>/dev/null || commit="$commit+uncommitted"
stamp=$(date -u +%Y-%m-%dT%H:%M:%SZ)

awk -v commit="$commit" -v stamp="$stamp" -v nproc="$nproc" '
BEGIN {
    printf "{\n  \"commit\": \"%s\",\n  \"generated\": \"%s\",\n  \"nproc\": %d,\n  \"benchmarks\": [", commit, stamp, nproc
    n = 0
}
/^Benchmark/ && /ns\/op/ {
    name = $1
    cpus = 1
    if (match(name, /-[0-9]+$/)) {
        cpus = substr(name, RSTART + 1)
        name = substr(name, 1, RSTART - 1)
    }
    sub(/^Benchmark/, "", name)
    ns = ""; bytes = "0"; allocs = "0"
    for (i = 2; i < NF; i++) {
        if ($(i + 1) == "ns/op") ns = $i
        if ($(i + 1) == "B/op") bytes = $i
        if ($(i + 1) == "allocs/op") allocs = $i
    }
    if (ns == "") next
    if (n++) printf ","
    printf "\n    {\"name\": \"%s\", \"cpus\": %d, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}",
        name, cpus, ns, bytes, allocs
}
END { printf "\n  ]\n}\n" }
' "$raw" > "$out"

echo "wrote $out"

if [ "$have_base" = 1 ]; then
    echo "== regression gate (baseline: previous $out, tolerance 15%)"
    awk '
    # Both files are our own one-entry-per-line JSON; pull name/cpus/ns with
    # match() so the gate needs no JSON tooling.
    function parse(line) {
        if (match(line, /"name": "[^"]+"/) == 0) return 0
        name = substr(line, RSTART + 9, RLENGTH - 10)
        match(line, /"cpus": [0-9]+/);      cpus = substr(line, RSTART + 8, RLENGTH - 8)
        match(line, /"ns_per_op": [0-9.]+/); ns  = substr(line, RSTART + 13, RLENGTH - 13)
        key = name "-" cpus
        return 1
    }
    NR == FNR { if (parse($0)) old[key] = ns; next }
    { if (parse($0) && (key in old) && ns + 0 > old[key] * 1.15) {
        printf "REGRESSION %s: %s -> %s ns/op (+%.1f%%)\n", key, old[key], ns,
            (ns / old[key] - 1) * 100
        bad = 1
    } }
    END { exit bad }
    ' "$base" "$out" || {
        echo "bench regression beyond 15%; see above (AXML_BENCH_NOGATE=1 to rebaseline)" >&2
        exit 1
    }
    echo "gate: no benchmark regressed beyond 15%"
fi
