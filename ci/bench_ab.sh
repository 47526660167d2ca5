#!/usr/bin/env bash
# Benchmark the working tree against a parent revision, with an A/A control.
#
#   ci/bench_ab.sh <parent-rev> <workload>[,<workload>...] <pairs>
#
# Two release builds of the same source in two directories can differ by
# more than a benchmark bound, so one build per side can pass or fail an
# unchanged program. This script builds the benchmark binary three times,
# one after another, in one fixed directory (.bench_build/ab/tree, with an
# emptied target directory each time): from <parent-rev>, from
# <parent-rev> again, and from the working tree (tracked and untracked,
# non-ignored files). It copies the binaries to .bench_build/ab/bin and
# runs <pairs> rounds. Round i uses seed i and the run length
# `run_seconds` from BENCHMARK.json, and runs every listed workload on
# the three binaries, in the order parent, change, second parent in odd
# rounds and the reverse in even ones, so neither side of a pair always
# runs first. For each workload it then prints `benchmark --compare` for
# parent -> change and for parent -> second parent build. A gap that the
# second comparison shows too is build or host variance, not the change.
# Run outputs stay in .bench_build/ab/runs/<workload>. The exit status is
# 1 when a parent -> change comparison reads `worse` on any workload.
# benchmark/Cargo.lock is restored on exit.
set -euo pipefail

if [ $# -ne 3 ]; then
    echo "usage: ci/bench_ab.sh <parent-rev> <workload>[,<workload>...] <pairs>" >&2
    exit 2
fi
rev=$1 pairs=$3
IFS=, read -r -a workloads <<<"$2"
root=$(git rev-parse --show-toplevel)
cd "$root"
git rev-parse --verify --quiet "$rev^{commit}" >/dev/null || {
    echo "bench_ab: unknown revision $rev" >&2
    exit 2
}
seconds=$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' BENCHMARK.json)
ab=$root/.bench_build/ab
tree=$ab/tree
mkdir -p "$ab/bin"
rm -rf "$ab/runs"
mkdir -p "$ab/runs"
cp benchmark/Cargo.lock "$ab/Cargo.lock.saved"
trap 'cp "$ab/Cargo.lock.saved" "$root/benchmark/Cargo.lock"' EXIT

# Fill the fixed tree from stdin (a tar stream) and build it from scratch.
build() {
    local name=$1
    rm -rf "$tree" "$ab/target"
    mkdir -p "$tree"
    tar -xf - -C "$tree"
    echo "bench_ab: building $name" >&2
    CARGO_TARGET_DIR=$ab/target cargo build --release --offline --quiet \
        --manifest-path "$tree/benchmark/Cargo.toml" --bin benchmark
    cp "$ab/target/release/benchmark" "$ab/bin/$name"
}

git archive "$rev" | build parent
git archive "$rev" | build parent2
git ls-files -z --cached --others --exclude-standard |
    tar --null -T - --ignore-failed-read -cf - | build change
rm -rf "$tree" "$ab/target"

for w in "${workloads[@]}"; do
    mkdir -p "$ab/runs/$w"
done
for i in $(seq 1 "$pairs"); do
    order="parent change parent2"
    if [ $((i % 2)) -eq 0 ]; then
        order="parent2 change parent"
    fi
    for w in "${workloads[@]}"; do
        for name in $order; do
            echo "bench_ab: round $i/$pairs: $w: $name" >&2
            "$ab/bin/$name" --workload "$w" --seed "$i" --seconds "$seconds" \
                >"$ab/runs/$w/$name-$i.txt" || echo "bench_ab: $name $w run $i exited $?" >&2
        done
    done
done

runs() { for i in $(seq 1 "$pairs"); do echo "$ab/runs/$1/$2-$i.txt"; done; }
status=0
for w in "${workloads[@]}"; do
    echo "== parent -> change ($w, $pairs pairs)"
    "$ab/bin/change" --compare $(runs "$w" parent) -- $(runs "$w" change) || status=1
    echo "== parent -> second parent build ($w, A/A control)"
    "$ab/bin/change" --compare $(runs "$w" parent) -- $(runs "$w" parent2) || true
done
exit "$status"
