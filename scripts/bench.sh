#!/bin/sh
# bench.sh — parallel read-path benchmark runner (experiment E8).
#
# Runs the root-package parallel, pushdown and value-index benchmarks at 1,
# 2, 4 and 8 goroutines with allocation accounting and distills the results
# into BENCH_parallel.json (override the path with $1), a machine-readable
# scaling curve that nightly CI uploads as an artifact. AXML_BENCHTIME
# overrides the per-benchmark measuring time (default 1s).
#
# There is no regression gate: single runs on a shared host swing by more
# than any useful tolerance. A performance claim is made with alternating
# parent/change pairs of benchmark/run.sh instead (see EXPERIMENTS.md).
set -eu
cd "$(dirname "$0")/.."

out="${1:-BENCH_parallel.json}"
raw=$(mktemp)
trap 'rm -f "$raw"' EXIT
nproc=$(getconf _NPROCESSORS_ONLN)

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
