#!/usr/bin/env bash
# What reaches the libraries' public surface, in two passes.
#
#   scripts/reach.sh
#
# Modules: for every `pub mod` in crates/tap-core/src/lib.rs, prints the files
# under crates/tap-sim/src (the figures) and benchmark/src (the workloads)
# whose shipped code names it: a `tap_core::<mod>` path, or a type lib.rs
# re-exports from it, in a `use tap_core::…;` statement or a `tap_core::`
# path. Only the lines scripts/shipped.sh prints count. A module nothing
# there names must be in the module table below, with the reason it ships
# anyway.
#
# Items: for every `pub` item of tap-core, tap-crypto and tap-netsim (a
# `pub` declaration among the lines scripts/shipped.sh prints), checks that its
# name appears as a word outside its own crate's src: in another
# crates/tap-* crate's shipped code (tap-sim's figures among them),
# benchmark/src, examples/, tests/, crates/*/tests or crates/bench/benches.
# Comment lines do not count, and neither do unit tests: an item only they
# use is `#[cfg(test)]`. An item nothing reaches must leave, become
# `pub(crate)`, or be in the exemption table below, whose one valid reason
# is that a reached item's signature names it. Prints each crate's count
# and the exempted items.
#
# Exits 1 when a module or an item is neither reached nor in its table, or
# when a table names what is gone or now reached; writes nothing.
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
    scripts/shipped.sh "$1" | cut -d: -f3- | tr '\n' ' ' |
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
# Unreached items that ship anyway: a reached item's signature names each.
declare -A exempt=(
    # tap-core
    [HeaderError]="HopHeader::decode returns it"
    [MultipathOutcome]="multipath::send_striped returns it"
    [MultipathReport]="MultipathOutcome::report holds it"
    [RetrievalReport]="World::retrieve_file returns it"
    # tap-crypto
    [DIGEST_LEN]="sha256::sha256 and Sha1::finalize return [u8; DIGEST_LEN]"
    [FragmentMeta]="ec::fragment_meta returns it"
    [OnionError]="LayerBuf::peel returns it"
    [PeeledLayer]="onion::peel returns it"
    [PuzzleSolution]="Puzzle::solve returns it"
    [Reconstruction]="EcConfig::reconstruct returns it"
    # tap-netsim
    [DeliveredMessage]="Event::Message carries it"
    [EventHandle]="CalendarQueue::push returns it"
    [EventKey]="CalendarQueue::pop returns it"
    [TrafficStats]="Network::stats returns it"
)

words() { grep -oE '[A-Za-z_][A-Za-z0-9_]*' | sort -u; }

# Words in tests, examples, benches and the benchmark: every line but comments.
common=$(find examples tests crates/*/tests crates/bench/benches benchmark/src -name '*.rs' \
    -exec grep -hvE '^[ \t]*//' {} + | words)
declare -A crate_words=()
for c in crates/tap-*; do
    crate_words[$c]=$(scripts/shipped.sh $(find "$c/src" -name '*.rs' | sort) | cut -d: -f3- | words)
done

declare -A item_crate=()
for crate in crates/tap-core crates/tap-crypto crates/tap-netsim; do
    # The words outside this crate's own src.
    corpus=$({ echo "$common"; for c in "${!crate_words[@]}"; do
        [ "$c" = "$crate" ] || echo "${crate_words[$c]}"; done; } | sort -u)
    n=0 exempted=0
    while IFS=: read -r file line name; do
        n=$((n + 1))
        item_crate[$name]=$crate
        if grep -qxF "$name" <<<"$corpus"; then
            if [ -n "${exempt[$name]:-}" ]; then
                echo "reach.sh: $name is reached now; drop it from the exemption table" >&2
                status=1
            fi
        elif [ -n "${exempt[$name]:-}" ]; then
            exempted=$((exempted + 1))
            printf '  %-22s (table) %s\n' "$name" "${exempt[$name]}"
        else
            echo "reach.sh: $file:$line: nothing outside ${crate#crates/}/src names pub $name" >&2
            status=1
        fi
    done < <(scripts/shipped.sh $(find "$crate/src" -name '*.rs' | sort) |
        sed -nE 's/^([^:]*):([0-9]+):[ \t]*pub (const |unsafe )*(fn|struct|enum|trait|type|const|static) ([A-Za-z_][A-Za-z0-9_]*).*/\1:\2:\5/p')
    printf '%-10s %d pub items, %d exempt\n' "${crate#crates/}" "$n" "$exempted"
done
for name in "${!exempt[@]}"; do
    if [ -z "${item_crate[$name]:-}" ]; then
        echo "reach.sh: the exemption table lists $name, which no crate declares pub" >&2
        status=1
    fi
done
exit $status
