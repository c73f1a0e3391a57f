#!/usr/bin/env bash
# Same-config A/B of two revisions with tap-bench: the accepted evidence for
# a performance claim (ROADMAP item 1; benchmark/README.md has the rules).
#
#   scripts/bench_ab.sh <a> <b> [--only <workload>] [--pairs N] [--seed0 S]
#
# Each side is a revision of this repository or a directory holding a tree
# of it. A revision is cloned (`git clone --shared`, detached checkout) under
# a temp dir; a directory is used as it is, uncommitted changes included.
# Builds each side's own benchmark/ package into the temp dir and runs N
# pairs: pair i runs `tap-bench run --only <w>` with seed S+i for each
# workload w in turn (A's BENCHMARK.json order, or the one named), the two
# sides back to back, so both see the host in the same state; pairs
# alternate which side runs first. Each side's workloads make the pair's
# result.json. Prints a pairs-won table and `tap-bench compare a1,…,aN
# b1,…,bN` — exit 1 if B is worse than A beyond a bound of A's
# BENCHMARK.json or fails more ops. Needs python3. Nothing is written
# inside the repository or a directory side; the results stay in the temp
# dir, whose path is printed. Keep the host otherwise idle.
set -euo pipefail

usage() {
    sed -n '2,19p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
}

[ $# -ge 2 ] || usage
side_a=$1
side_b=$2
shift 2
only=()
pairs=10
seed0=1
while [ $# -gt 0 ]; do
    [ $# -ge 2 ] || usage
    case $1 in
        --only) only=(--only "$2") ;;
        --pairs) pairs=$2 ;;
        --seed0) seed0=$2 ;;
        *) usage ;;
    esac
    shift 2
done
case $pairs$seed0 in *[!0-9]* | '') usage ;; esac
[ "$pairs" -ge 1 ] || usage

repo=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
work=$(mktemp -d "${TMPDIR:-/tmp}/bench_ab.XXXXXX")
# $work/<side> is the side's tree (a clone, or a link to the directory given)
# and $work/build_<side> its cargo target dir.
cleanup() {
    rm -rf "$work/a" "$work/b" "$work/build_a" "$work/build_b"
    echo "bench_ab: results kept in $work/runs" >&2
}
trap cleanup EXIT

for side in a b; do
    spec=$side_a
    [ $side = b ] && spec=$side_b
    if [ -d "$spec" ]; then
        ln -s "$(cd "$spec" && pwd)" "$work/$side"
        what="directory $(cd "$spec" && pwd)"
    else
        sha=$(git -C "$repo" rev-parse --verify --quiet "$spec^{commit}") || usage
        git clone --quiet --shared --no-checkout "$repo" "$work/$side"
        git -C "$work/$side" checkout --quiet --detach "$sha"
        what="$spec ($(git -C "$work/$side" rev-parse --short HEAD))"
    fi
    echo "bench_ab: building $side = $what" >&2
    cargo build --release --offline --quiet --target-dir "$work/build_$side" \
        --manifest-path "$work/$side/benchmark/Cargo.toml"
done

if [ ${#only[@]} -gt 0 ]; then
    workloads=("${only[1]}")
else
    mapfile -t workloads < <(python3 -c '
import json, sys
for w in json.load(open(sys.argv[1]))["workloads"]:
    print(w["name"])' "$work/a/BENCHMARK.json")
fi

run_side() { # <side> <pair> <workload>
    out=$work/runs/$1_$2/$3/result.json
    mkdir -p "$(dirname "$out")"
    # From the side's tree, so that `run` stamps the result with its sha.
    (cd "$work/$1" && "$work/build_$1/release/tap-bench" run \
        --seed $((seed0 + $2)) --only "$3" --out "$out" >/dev/null)
}

merge_side() { # <side> <pair>: the pair's workloads into one result.json
    dir=$work/runs/$1_$2
    python3 - "$dir/result.json" "${workloads[@]/#/$dir/}" <<'PY'
import json, sys
out, parts = sys.argv[1], sys.argv[2:]
runs = [json.load(open(f"{part}/result.json")) for part in parts]
merged = runs[0]
merged["workloads"] = {name: w for run in runs for name, w in run["workloads"].items()}
json.dump(merged, open(out, "w"))
PY
}

for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then order="a b"; else order="b a"; fi
    echo "bench_ab: pair $i/$pairs, seed $((seed0 + i)), order: $order" >&2
    for w in "${workloads[@]}"; do
        for side in $order; do
            run_side "$side" "$i" "$w"
        done
    done
    for side in a b; do
        merge_side "$side" "$i"
    done
done

list() { # <side>
    seq 1 "$pairs" | sed "s|.*|$work/runs/$1_&/result.json|" | paste -sd, -
}

# What `compare` does not say: it wants one seed throughout to call the
# simulated metrics identical, and it does not count pairs. Per pair: are the
# sim metrics and the digest the same on both sides; per wall metric: A's
# median and quartile distance, B's median, and the pairs B won (a gain needs
# nine in ten, and medians further apart than A's quartiles).
python3 - "$work/a/BENCHMARK.json" "$work/bounds.json" "$pairs" "$work/runs" ${only[@]+"${only[1]}"} <<'PY'
import json, statistics, sys
src, dst, pairs, runs = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4]
bench = json.load(open(src))
if len(sys.argv) > 5:
    bench["workloads"] = [w for w in bench["workloads"] if w["name"] == sys.argv[5]]
json.dump(bench, open(dst, "w"))
load = lambda side, i: json.load(open(f"{runs}/{side}_{i}/result.json"))["workloads"]
a, b = ([load(side, i) for i in range(1, pairs + 1)] for side in "ab")
sim = ("virt_p50_ms", "virt_p99_ms", "delivered_frac", "wire_bytes_per_xfer")
print(f"{'workload':<16} {'metric':<18} {'a median (IQR)':>22} {'b median':>12} {'b/a':>7}  pairs won by b")
for w in (w["name"] for w in bench["workloads"]):
    for m in (m for m in bench["end_to_end"] if m["name"] not in sim):
        va, vb = ([r[w]["end_to_end"][m["name"]]["value"] for r in side] for side in (a, b))
        q = statistics.quantiles(va, n=4) if pairs > 1 else [va[0]] * 3
        won = sum((y > x) if m["better"] == "higher" else (y < x) for x, y in zip(va, vb))
        ma, mb = statistics.median(va), statistics.median(vb)
        print(f"{w:<16} {m['name']:<18} {ma:>12.4g} ({q[2] - q[0]:.3g}) {mb:>12.4g} {mb / ma:>7.3f}  {won}/{pairs}")
    same = sum(x[w]["sim_digest"] == y[w]["sim_digest"] and x[w]["failed"] == y[w]["failed"]
               and all(x[w]["end_to_end"][k] == y[w]["end_to_end"][k] for k in sim)
               for x, y in zip(a, b))
    print(f"{w:<16} sim metrics, sim_digest and failed ops equal in {same}/{pairs} pairs")
PY
echo
"$work/build_b/release/tap-bench" compare "$(list a)" "$(list b)" \
    --bounds "$work/bounds.json"
