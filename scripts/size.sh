#!/usr/bin/env bash
# How much code ships (ROADMAP item 4(a)): per library crate, the non-test
# lines, `pub` items and panic sites of its `src` tree.
#
#   scripts/size.sh [--json] [<crate> ...]   # default: every crates/tap-*
#
# A file counts up to its first `#[cfg(test)]` that gates a module: the next
# line that is neither blank nor an attribute opens a `mod`. A `#[cfg(test)]`
# on anything else (a `use`, a `fn`) ends nothing, and its lines count. A file
# its parent module declares as `#[cfg(test)] mod <name>;` is test code from
# its first line.
# Panic sites are `.expect(`, `.unwrap()`, `unreachable!`, `panic!`, `assert!`,
# `assert_eq!` and `assert_ne!` outside comment lines (`debug_assert*` does not
# count: release builds compile it out). Prints a table, or with `--json` the
# same numbers as the object committed as SIZE.json (CI fails when
# `scripts/size.sh --json | diff - SIZE.json` is non-empty); writes nothing.
set -euo pipefail

cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"
json=0
if [ "${1:-}" = --json ]; then json=1 && shift; fi
if [ $# -gt 0 ]; then crates=("$@"); else crates=(crates/tap-*); fi

is_test_module() { # <file>
    local stem dir
    stem=$(basename "${1%/mod.rs}" .rs)
    dir=$(dirname "${1%/mod.rs}")
    grep -qsPzo "#\[cfg\(test\)\]\s*\n\s*mod $stem;" \
        "$dir.rs" "$dir/mod.rs" "$dir/lib.rs" "$dir/main.rs"
}

for crate in "${crates[@]}"; do
    files=()
    while IFS= read -r file; do
        is_test_module "$file" || files+=("$file")
    done < <(find "crates/${crate#crates/}/src" -name '*.rs' | sort)
    awk -v crate="${crate#crates/}" '
        function count(line) {
            lines++
            if (line ~ /^[ \t]*pub (const |unsafe )*(fn|struct|enum|trait|type|const|static) /) pubs++
            if (line ~ /^[ \t]*\/\//) return
            gsub(/debug_assert/, "", line)
            panics += gsub(/\.expect\(|\.unwrap\(\)|unreachable!|panic!|assert(_eq|_ne)?!/, "", line)
        }
        # Lines from a `#[cfg(test)]` on are held until the item it gates shows.
        FNR == 1 { shipped = 1; held = 0 }
        !shipped { next }
        held && /^[ \t]*(#\[.*)?$/ { hold[held++] = $0; next }
        held && /^[ \t]*(pub(\([a-z]+\))? )?mod / { shipped = 0; next }
        held { for (i = 0; i < held; i++) count(hold[i]); held = 0 }
        /#\[cfg\(test\)\]/ {
            if ($0 ~ /\][ \t]*(pub(\([a-z]+\))? )?mod /) { shipped = 0; next }
            hold[held++] = $0
            next
        }
        { count($0) }
        END { printf "%-14s %8d %6d %7d\n", crate, lines, pubs, panics }
    ' "${files[@]}"
done | awk -v json="$json" '
    BEGIN { if (json) print "{"; else printf "%-14s %8s %6s %7s\n", "crate", "lines", "pub", "panics" }
    {
        if (json) printf "  \"%s\": {\"lines\": %d, \"pub\": %d, \"panics\": %d},\n", $1, $2, $3, $4
        else print
        lines += $2; pubs += $3; panics += $4
    }
    END {
        if (json) printf "  \"total\": {\"lines\": %d, \"pub\": %d, \"panics\": %d}\n}\n", lines, pubs, panics
        else printf "%-14s %8d %6d %7d\n", "total", lines, pubs, panics
    }
'
