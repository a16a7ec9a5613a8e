#!/bin/sh
# Lines of crate code outside #[cfg(test)], per crate and in total: every
# line of every .rs file under crates/*/src and src, except the
# #[cfg(test)] attribute and the item it gates, matched by braces (or up
# to the `;` of a braceless item). Run from anywhere; it reads the
# checkout it lives in.
cd "$(dirname "$0")/.." || exit 1
find crates/*/src src -name '*.rs' | sort | xargs awk '
FNR == 1 { skip = 0 }
!skip && /^[ \t]*#\[cfg\(test\)\]/ { skip = 1; depth = 0; opened = 0; next }
skip {
    line = $0
    o = gsub(/\{/, "", line); c = gsub(/\}/, "", line)
    depth += o - c
    if (o > 0) opened = 1
    if ((opened && depth <= 0) || (!opened && line ~ /;[ \t]*$/)) skip = 0
    next
}
{ split(FILENAME, p, "/"); lines[p[1] == "crates" ? p[2] : "src"]++; total++ }
END {
    for (c in lines) printf "%7d  %s\n", lines[c], c | "sort -k2"
    close("sort -k2")
    printf "%7d  total\n", total
}'
