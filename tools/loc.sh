#!/bin/sh
# Counted lines per crate: the non-test, non-comment, non-blank lines of
# crates/*/src. Each file is read up to its first `#[cfg(test)]`; blank
# lines and lines starting with `//` are dropped. This is the number
# simplicity PRs quote. (Lines moved into tests, or removed by reformatting
# or by deleting comments, lower it without making anything simpler:
# reviewers read the diff for that.)
#
#   tools/loc.sh                  per-crate table and total
#   tools/loc.sh FILE...          the same count for each given file
#   tools/loc.sh --diff GIT-REF   per-crate table for GIT-REF (files read
#                                 with `git show`), the working tree, and
#                                 the delta — a simplicity PR's number,
#                                 computed rather than quoted
set -eu
cd "$(dirname "$0")/.."

# Counted lines of the Rust source on stdin; `FNR == 1` restarts the
# `#[cfg(test)]` cut at each file when awk is given file arguments instead.
count() {
    awk 'FNR == 1 { skip = 0 }
         /#\[cfg\(test\)\]/ { skip = 1 }
         skip || /^[[:space:]]*($|\/\/)/ { next }
         { n++ }
         END { print n + 0 }' "$@"
}

# Counted lines of one crate's src directory in the working tree.
count_tree() {
    # shellcheck disable=SC2046  # no crate path has spaces
    count $(find "$1" -name '*.rs' | sort)
}

# Counted lines of one crate's src directory as of git ref $2.
count_ref() {
    ref_sum=0
    for f in $(git ls-tree -r --name-only "$2" -- "$1" | grep '\.rs$'); do
        ref_sum=$((ref_sum + $(git show "$2:$f" | count)))
    done
    echo "$ref_sum"
}

if [ "${1:-}" = "--diff" ]; then
    ref=${2:?usage: tools/loc.sh --diff GIT-REF}
    git rev-parse --verify --quiet "$ref^{commit}" >/dev/null || {
        echo "tools/loc.sh: not a commit: $ref" >&2
        exit 2
    }
    printf '%-28s %8s %8s %7s\n' "" "$(git rev-parse --short "$ref")" tree delta
    before_total=0
    after_total=0
    # Crates of either side: one that the change adds or deletes still gets a row.
    for dir in $({ git ls-tree -d --name-only "$ref" crates/ | sed 's|$|/src|'; ls -d crates/*/src; } | sort -u); do
        before=$(count_ref "$dir" "$ref")
        after=0
        [ -d "$dir" ] && after=$(count_tree "$dir")
        printf '%-28s %8d %8d %+7d\n' "$dir" "$before" "$after" $((after - before))
        before_total=$((before_total + before))
        after_total=$((after_total + after))
    done
    printf '%-28s %8d %8d %+7d\n' total "$before_total" "$after_total" $((after_total - before_total))
    exit 0
fi

if [ "$#" -gt 0 ]; then
    for f in "$@"; do
        printf '%-40s %6d\n' "$f" "$(count "$f")"
    done
    exit 0
fi

total=0
for dir in crates/*/src; do
    n=$(count_tree "$dir")
    printf '%-40s %6d\n' "$dir" "$n"
    total=$((total + n))
done
printf '%-40s %6d\n' total "$total"
