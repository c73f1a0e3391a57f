#!/usr/bin/env bash
# Regenerate every golden CSV with the documented tap-sim command lines,
# then print what moved.
#
#   scripts/repin.sh
#
# tiny and quick go to crates/tap-sim/tests/goldens/{tiny/,}, each as
# `all` plus the coded-multipath sweep (resilience_mp.csv); paper goes to
# results/ (about 20 s on two cores). `tests/figure_pins.rs` holds every
# one of them. The wall-clock files --csv writes beside the CSVs
# (<fig>.metrics.json, BENCH_sim.json) are git-ignored. A run on an
# unchanged tree leaves `git status` clean.
#
# The digest pins in tests/engine.rs and tests/determinism.rs are not
# CSVs: when one moves on purpose, its failure prints the new constant.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --quiet -p tap-sim
sim=target/release/tap-sim
tiny=crates/tap-sim/tests/goldens/tiny
quick=crates/tap-sim/tests/goldens

run() {
    echo "tap-sim $*"
    "$sim" "$@" > /dev/null
}

run all --preset tiny --csv "$tiny"
run resilience --preset tiny --multipath 5/3 --csv "$tiny"
run all --preset quick --csv "$quick"
run resilience --preset quick --multipath 5/3 --csv "$quick"
run all --preset paper --csv results

git diff --stat -- "$tiny" "$quick" results
