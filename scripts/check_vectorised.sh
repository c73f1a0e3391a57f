#!/usr/bin/env bash
# Holds the compiler to the code the ChaCha20 kernel's speed rests on
# (DESIGN.md §6h): `tap_crypto::chacha20::quarter_round_lanes` must come out
# of the shipped release profile as SSE2 vector code, not as one scalar `rol`
# per lane. Every multi-block pass runs through it: a stream's consecutive
# blocks (`xor_blocks`) and the first blocks of several streams filled
# together (`KeystreamCursor::fill_windows`, the onion seal's cross-layer
# lanes). A toolchain bump that re-scalarises it then fails here instead of
# showing up as a 30 % `retrieve_2mb` regression three PRs later.
#
#   scripts/check_vectorised.sh
#
# Builds tap-crypto into a temp dir with `--emit asm`, finds the kernel in the
# assembly and fails unless its body has `paddd` and `pslld` and nothing
# between the first and the last `paddd` is a `rol` (the lane loop's scalar
# epilogue, four `rol`s after the vector code, is expected). The instruction
# names are x86-64's: on any other host it prints "skipped" and exits 0. This
# script looks at the host; the library never does.
set -euo pipefail

if [ "$(uname -m)" != x86_64 ]; then
    echo "check_vectorised: skipped (the check reads x86_64 assembly, this host is $(uname -m))"
    exit 0
fi

repo=$(cd "$(dirname "$0")/.." && pwd)
out=$(mktemp -d "${TMPDIR:-/tmp}/check_vectorised.XXXXXX")
trap 'rm -rf "$out"' EXIT

# Sixteen codegen units is what a release build uses when nothing sets the
# number; saying so keeps `--emit asm` from dropping to one unit and checking
# code the shipped build does not contain.
cargo rustc --release --quiet --manifest-path "$repo/Cargo.toml" -p tap-crypto \
    --target-dir "$out" -- --emit asm -C codegen-units=16

body=$out/quarter_round_lanes.s
cat "$out"/release/deps/tap_crypto-*.s |
    awk '/^[_A-Za-z0-9.$]*quarter_round_lanes[_A-Za-z0-9.$]*:$/ { on = 1 }
         on { print }
         on && /\.cfi_endproc/ { on = 0 }' >"$body"
if [ ! -s "$body" ]; then
    echo "check_vectorised: no quarter_round_lanes in the assembly (inlined, or renamed?)" >&2
    exit 1
fi

count() { grep -cE "^[[:space:]]+$1[[:space:]]" "$body" || true; }
paddd=$(count paddd)
pslld=$(count pslld)
# `rol`s between the first and the last `paddd`.
inside=$(awk '/^[[:space:]]+paddd[[:space:]]/ { seen = 1; bad += pending; pending = 0 }
              seen && /^[[:space:]]+rol[a-z]*[[:space:]]/ { pending++ }
              END { print bad + 0 }' "$body")
echo "check_vectorised: quarter_round_lanes has $paddd paddd, $pslld pslld, $(count 'rol[a-z]*') rol ($inside inside the vector code)"
if [ "$paddd" -eq 0 ] || [ "$pslld" -eq 0 ] || [ "$inside" -ne 0 ]; then
    echo "check_vectorised: the ChaCha20 kernel is not vectorised under this toolchain" >&2
    exit 1
fi
