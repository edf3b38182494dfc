#!/usr/bin/env bash
# Non-test source lines: for every .rs file under crates/*/src and src,
# the lines above its first `#[cfg(test)]` (the whole file when it has
# none). Prints the total; `--files` also lists the per-file counts.
set -euo pipefail
cd "$(dirname "$0")/.."

find crates/*/src src -name '*.rs' | sort | while read -r f; do
    awk '/#\[cfg\(test\)\]/{exit} {n++} END{print n+0, FILENAME}' "$f"
done | awk -v files="${1:-}" '
    { total += $1; if (files == "--files") print }
    END { print total }'
