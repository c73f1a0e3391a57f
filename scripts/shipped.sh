#!/usr/bin/env bash
# The shipped lines of the Rust files given, each as `file:line:text`.
#
#   scripts/shipped.sh <file>...
#
# The one rule every structural check reads (scripts/reach.sh and the "one X"
# lints in CI), and the rule scripts/size.sh counts by: a file ships up to its
# first `#[cfg(test)]` that gates a `mod`, and a file its parent declares as
# `#[cfg(test)] mod <name>;` does not ship at all. A `#[cfg(test)]` on
# anything else (a `use`, a `fn`) ends nothing; only the first line of the
# item it gates is left out. Comment lines are left out too. Writes nothing.
set -euo pipefail

is_test_module() { # <file>
    local stem dir
    stem=$(basename "${1%/mod.rs}" .rs)
    dir=$(dirname "${1%/mod.rs}")
    grep -qsPzo "#\[cfg\(test\)\]\s*\n\s*mod $stem;" \
        "$dir.rs" "$dir/mod.rs" "$dir/lib.rs" "$dir/main.rs"
}

files=()
for file in "$@"; do
    is_test_module "$file" || files+=("$file")
done
[ ${#files[@]} -gt 0 ] || exit 0
awk '
    FNR == 1 { shipped = 1; gated = 0 }
    !shipped || /^[ \t]*\/\// { next }
    /#\[cfg\(test\)\]/ {
        if ($0 ~ /\][ \t]*(pub(\([a-z]+\))? )?mod /) shipped = 0
        else gated = 1
        next
    }
    gated && /^[ \t]*(#\[.*)?$/ { next }
    gated && /^[ \t]*(pub(\([a-z]+\))? )?mod / { shipped = 0; next }
    gated { gated = 0; next }
    { print FILENAME ":" FNR ":" $0 }
' "${files[@]}"
