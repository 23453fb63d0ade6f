#!/bin/sh
# Non-test, non-comment, non-blank lines of Rust source per crate: in
# each file, everything from the first top-level `#[cfg(test)]` on is
# test code and not counted.
#
# Usage: scripts/loc.sh [CRATE_DIR ...]   (default: every crates/*)
cd "$(dirname "$0")/.." || exit 1
[ $# -gt 0 ] || set -- crates/*
for crate in "$@"; do
    crate=${crate%/}
    [ -d "$crate/src" ] || continue
    n=$(find "$crate/src" -name '*.rs' | sort | xargs awk '
        /^#\[cfg\(test\)\]/ { nextfile }
        !/^[[:space:]]*(\/\/|$)/ { n++ }
        END { print n + 0 }')
    printf '%7d  %s\n' "$n" "$crate"
done
