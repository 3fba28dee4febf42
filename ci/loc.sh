#!/usr/bin/env bash
# Size of the tree: Rust lines per crate (crates/*, plus the root package's
# src/, tests/ and examples/), then, below that total and outside it, the
# benchmark's and the vendored shims' Rust lines, and the bytes of every
# top-level and docs/ Markdown file. Run from anywhere: ci/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

rust_lines() {
    find "$@" -name '*.rs' -type f -print0 2>/dev/null | xargs -0 cat 2>/dev/null | wc -l
}

echo "rust lines"
total=0
for dir in crates/*/ src/ tests/ examples/; do
    n=$(rust_lines "$dir")
    total=$((total + n))
    printf '  %-22s %7d\n' "${dir%/}" "$n"
done
printf '  %-22s %7d\n' total "$total"
for dir in benchmark/src/ vendor/; do
    printf '  %-22s %7d\n' "${dir%/}" "$(rust_lines "$dir")"
done

echo "markdown bytes"
total=0
for f in ./*.md docs/*.md; do
    n=$(wc -c <"$f")
    total=$((total + n))
    printf '  %-22s %7d\n' "${f#./}" "$n"
done
printf '  %-22s %7d\n' total "$total"
