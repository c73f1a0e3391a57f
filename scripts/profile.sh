#!/usr/bin/env bash
# Sampled CPU profile of one tap-bench workload, by function.
#
#   scripts/profile.sh <workload> [seconds]
#
# Builds the release tap-bench (the root manifest's release profile keeps
# line tables, so inlined callees are still named) into target/profile/build,
# runs `tap-bench --workload <workload> --seed 1 --seconds <seconds> --trace 0`
# (default 15 s) under `gprofng collect app -p on`, and prints the top 25
# functions by exclusive and by inclusive CPU time. Needs neither perf nor
# root. Everything it writes stays under target/profile/ of the repository;
# the experiment is target/profile/<workload>.er, which
# `gprofng display text` reads again. Exits 2 when gprofng is not installed.
set -euo pipefail

usage() {
    sed -n '2,13p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
}

[ $# -ge 1 ] && [ $# -le 2 ] || usage
workload=$1
seconds=${2:-15}
case $seconds in *[!0-9]* | '') usage ;; esac

if ! command -v gprofng > /dev/null; then
    echo "profile.sh: gprofng not found (it ships with GNU binutils ≥ 2.39)" >&2
    exit 2
fi

repo=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
out=$repo/target/profile
mkdir -p "$out"
cargo build --release --offline --quiet \
    --manifest-path "$repo/benchmark/Cargo.toml" --target-dir "$out/build"

exp=$out/$workload.er
rm -rf "$exp"
gprofng collect app -p on -o "$exp" \
    "$out/build/release/tap-bench" --workload "$workload" --seed 1 \
    --seconds "$seconds" --trace 0 > "$out/$workload.stdout"

for metric in e.totalcpu i.totalcpu; do
    echo "== $workload, ${seconds} s: top 25 functions by $metric"
    gprofng display text -metrics e.%totalcpu:i.%totalcpu -sort "$metric" \
        -limit 25 -functions "$exp" | sed -n '/^Functions sorted/,$p'
done
