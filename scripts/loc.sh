#!/usr/bin/env bash
# Non-test Rust lines per file under crates/*/src and src/, plus the total.
# A file's program half is every line above its `#[cfg(test)]` + `mod tests`
# block; a `#[cfg(test)]` item above that block (a test-only field or
# hook) is counted, since it sits inside program code. A file with no
# test module counts whole.
# Run from anywhere: ./scripts/loc.sh [path-prefix]   (e.g. crates/ps/src)
set -euo pipefail
cd "$(dirname "$0")/.."

prefix=${1:-}
git ls-files 'crates/*/src/*.rs' 'crates/*/src/**/*.rs' 'src/*.rs' 'src/**/*.rs' |
    sort -u |
    grep "^$prefix" |
    while read -r f; do
        awk -v f="$f" '
            prev ~ /^#\[cfg\(test\)\]$/ && /^mod tests( |\{|;|$)/ { n = NR - 2; exit }
            { prev = $0 }
            END { if (n == "") n = NR; printf "%6d %s\n", n, f }
        ' "$f"
    done |
    awk '{ print; total += $1 } END { printf "%6d total\n", total }'
