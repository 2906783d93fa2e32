#!/bin/sh
# Counted lines per crate: the non-test, non-comment, non-blank lines of
# crates/*/src. Each file is read up to its first `#[cfg(test)]`; blank
# lines and lines starting with `//` are dropped. This is the number
# simplicity PRs quote. (Lines moved into tests, or removed by reformatting
# or by deleting comments, lower it without making anything simpler:
# reviewers read the diff for that.)
#
#   tools/loc.sh            per-crate table and total
#   tools/loc.sh FILE...    the same count for each given file
set -eu
cd "$(dirname "$0")/.."

count() {
    awk 'FNR == 1 { skip = 0 }
         /#\[cfg\(test\)\]/ { skip = 1 }
         skip || /^[[:space:]]*($|\/\/)/ { next }
         { n++ }
         END { print n + 0 }' "$@"
}

if [ "$#" -gt 0 ]; then
    for f in "$@"; do
        printf '%-40s %6d\n' "$f" "$(count "$f")"
    done
    exit 0
fi

total=0
for dir in crates/*/src; do
    # shellcheck disable=SC2046  # no crate path has spaces
    n=$(count $(find "$dir" -name '*.rs' | sort))
    printf '%-40s %6d\n' "$dir" "$n"
    total=$((total + n))
done
printf '%-40s %6d\n' total "$total"
