#!/usr/bin/env bash
# Which figure or tap-bench workload reaches each tap-core module.
#
#   scripts/reach.sh
#
# For every `pub mod` in crates/tap-core/src/lib.rs, prints the files under
# crates/tap-sim/src (the figures) and benchmark/src (the workloads) whose
# shipped code names it: a `tap_core::<mod>` path, or a type lib.rs
# re-exports from it, in a `use tap_core::…;` statement or a `tap_core::`
# path. A file counts up to its first `#[cfg(test)]`; comment lines do not
# count. A module nothing there names must be in the table below, with the
# reason it ships anyway. Exits 1 when a module is neither reached nor in
# the table, or when the table names a module lib.rs no longer declares or
# one a figure or workload now reaches; writes nothing.
set -euo pipefail

cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"

# Modules no figure or workload reaches, and why each still ships.
declare -A unreached=(
    # §3.3–3.4: anonymous THA deployment over an Onion-Routing bootstrap
    # path, CPU-puzzle flood payment and verified deletion.
    # `World::deploy_anchors` runs it for the examples and the root tests;
    # every figure deploys its anchors directly, and no workload deploys.
    [deploy]="§3.3–3.4 bootstrap deployment; examples and root tests only"
)

lib=crates/tap-core/src/lib.rs
mapfile -t modules < <(sed -nE 's/^pub mod ([a-z_0-9]+);.*/\1/p' "$lib")
mapfile -t files < <(find crates/tap-sim/src benchmark/src -name '*.rs' | sort)

# The identifiers a file's shipped code reaches tap-core through.
names() { # <file>
    awk '/#\[cfg\(test\)\]/ { exit } !/^[ \t]*\/\// { printf "%s ", $0 }' "$1" |
        grep -oE 'use tap_core::[^;]*;|tap_core::[A-Za-z0-9_:]+' |
        grep -oE '[A-Za-z0-9_]+' | grep -vxE 'use|tap_core|self' | sort -u || true
}

declare -A reached_by=()
for f in "${files[@]}"; do
    for name in $(names "$f"); do
        reached_by[$name]+=" $f"
    done
done

status=0
for m in "${modules[@]}"; do
    # The module's own name, and every type lib.rs re-exports from it.
    types=$(sed -nE "s/^pub use $m::\{?([^}]*)\}?;/\1/p" "$lib" | tr -d ' ' | tr ',' ' ')
    hits=$(for n in "$m" $types; do echo ${reached_by[$n]:-}; done | tr ' ' '\n' | sed '/^$/d' | sort -u)
    if [ -n "$hits" ]; then
        printf '%-10s %s\n' "$m" "$(echo $hits)"
        if [ -n "${unreached[$m]:-}" ]; then
            echo "reach.sh: $m is reached now; drop it from the table" >&2
            status=1
        fi
    elif [ -n "${unreached[$m]:-}" ]; then
        printf '%-10s (table) %s\n' "$m" "${unreached[$m]}"
    else
        echo "reach.sh: no figure or workload reaches $m, and the table does not list it" >&2
        status=1
    fi
done
for m in "${!unreached[@]}"; do
    if ! printf '%s\n' "${modules[@]}" | grep -qx "$m"; then
        echo "reach.sh: the table lists $m, which $lib no longer declares" >&2
        status=1
    fi
done
exit $status
