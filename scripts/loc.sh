#!/usr/bin/env bash
# Count non-test lines of Rust, per crate and in total.
#
# Usage:
#   scripts/loc.sh          # from anywhere inside the repo
#
# Counts every `.rs` file under `crates/*/src` and the root package's
# `src`. A `#[cfg(test)]` item is dropped whole: from the attribute line
# to the `}` that closes its first `{`, or to its `;` when it has no
# body. Blank lines and lines whose first non-blank characters are `//`
# (comments and doc comments) are dropped as well. Braces inside a
# skipped item are counted without regard to strings or comments.
#
# Prints one `<lines> <crate>` line per crate, then `<lines> total`.
set -euo pipefail
cd "$(dirname "$0")/.."

find crates/*/src src -name '*.rs' | sort | xargs awk '
  FNR == 1 { skip = 0 }
  {
    line = $0; t = line
    sub(/^[ \t]+/, "", t); sub(/[ \t]+$/, "", t)
    if (!skip && t == "#[cfg(test)]") { skip = 1; depth = 0; opened = 0; next }
    if (skip) {
      o = gsub(/\{/, "{", line); c = gsub(/\}/, "}", line)
      depth += o - c
      if (o > 0) opened = 1
      if ((opened && depth <= 0) || (!opened && t ~ /;$/)) skip = 0
      next
    }
    if (t == "" || t ~ /^\/\//) next
    split(FILENAME, p, "/")
    crate = (p[1] == "crates") ? p[2] : "(root)"
    n[crate]++; total++
  }
  END {
    for (c in n) print n[c], c | "sort -k2"
    close("sort -k2")
    print total, "total"
  }
'
