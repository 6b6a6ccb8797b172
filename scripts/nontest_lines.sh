#!/usr/bin/env bash
# Count non-test Rust lines in a checkout of this workspace.
#
# The rule: every `.rs` file outside the top-level `tests/`, `benchmark/`,
# `crates/shims/` and `target/` counts (`crates/*/tests/` included), each
# file cut before its first inline `mod name {` carrying `#[cfg(test)]` or
# `#[cfg(all(test, ..))]`. A gated declaration `mod name;` does not cut
# its file: the declaration and its attribute are left out, and so is
# the whole file `name.rs` it declares (`dir/name.rs` beside a `lib.rs`,
# `main.rs` or `mod.rs`, else `stem/name.rs`). Every other line before
# the cut counts, blank lines and comments included.
#
# Usage: scripts/nontest_lines.sh [-v] [DIR]
# DIR defaults to the checkout this script sits in. Prints the total;
# `-v` first lists each file's count.
set -euo pipefail

verbose=0
if [[ "${1:-}" == "-v" ]]; then
    verbose=1
    shift
fi
cd "${1:-$(dirname "$0")/..}"

find . \( -path ./tests -o -path ./benchmark -o -path ./crates/shims -o -path ./target \
    -o -path ./.git \) -prune -o -name '*.rs' -type f -print |
    LC_ALL=C sort |
    while read -r file; do
        awk -v file="$file" '
            # A test attribute is held back until the next line shows
            # whether it opens the cut or declares a test-only file.
            {
                if (held && $0 ~ /^[[:space:]]*(pub(\([^)]*\))?[[:space:]]+)?mod[[:space:]]+[A-Za-z0-9_]+[[:space:]]*;/) {
                    name = $0
                    sub(/^[[:space:]]*(pub(\([^)]*\))?[[:space:]]+)?mod[[:space:]]+/, "", name)
                    sub(/[[:space:]]*;.*$/, "", name)
                    dir = file
                    sub(/\/[^\/]*$/, "", dir)
                    if (file !~ /\/(lib|main|mod)\.rs$/) {
                        stem = file
                        sub(/\.rs$/, "", stem)
                        dir = stem
                    }
                    print "skip", dir "/" name ".rs"
                    held = 0
                    next
                }
                if (held && $0 ~ /^[[:space:]]*(pub(\([^)]*\))?[[:space:]]+)?mod[[:space:]]/) exit
                n += held
                held = 0
                if ($0 ~ /^[[:space:]]*#\[cfg\((test|all\(test[,)].*)\)\][[:space:]]*$/) held = 1
                else n++
            }
            END { print n + held, file }
        ' "$file"
    done |
    awk -v verbose="$verbose" '
        $1 == "skip" { skip[$2] = 1; next }
        { count[++files] = $1; name[files] = $2 }
        END {
            for (i = 1; i <= files; i++) {
                if (name[i] in skip) continue
                if (verbose) print count[i], name[i]
                total += count[i]
            }
            print total
        }
    '
