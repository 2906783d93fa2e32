#!/bin/sh
# Counted lines per crate: the non-test, non-comment, non-blank lines of
# crates/*/src and of the root crate's src (the testbed). Each file is read up to its first `#[cfg(test)]`; blank
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
#   tools/loc.sh --knobs          the options: public fields of every
#                                 `pub struct *Config` / `*Options` /
#                                 `*Knobs` in those directories, one line per
#                                 struct (crate, struct, count, fields)
#   tools/loc.sh --knobs --diff GIT-REF
#                                 field counts per struct for GIT-REF, the
#                                 working tree, and the delta
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

# The crate source directories: the working tree's, or (given a git ref)
# that ref's.
src_dirs() {
    if [ "$#" -eq 0 ]; then
        ls -d src crates/*/src
    else
        git ls-tree -d --name-only "$1" src crates/ | sed 's|^crates/.*|&/src|'
    fi
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

# The option structs of the Rust source given as files (or on stdin), read
# up to each file's `#[cfg(test)]`: a bare `Struct` line per struct, then a
# `Struct field` line per public field.
knobs() {
    awk 'FNR == 1 { skip = 0; name = "" }
         /#\[cfg\(test\)\]/ { skip = 1 }
         skip { next }
         name != "" && /^[[:space:]]*}/ { name = ""; next }
         name != "" && /^[[:space:]]*pub [a-z_][a-z0-9_]*:/ {
             f = $0; sub(/^[[:space:]]*pub /, "", f); sub(/:.*/, "", f)
             print name, f
             next
         }
         /^[[:space:]]*pub struct [A-Za-z0-9_]*(Config|Options|Knobs)[[:space:]]*\{[[:space:]]*$/ {
             name = $0; sub(/^[[:space:]]*pub struct /, "", name); sub(/[[:space:]]*\{.*/, "", name)
             print name
         }' "$@"
}

# `DIR Struct count field...` per option struct, from `knobs` output on
# stdin.
tally() {
    awk -v dir="$1" '
        NF == 1 { if (!($1 in n)) { order[++k] = $1; n[$1] = 0 } next }
        { n[$1]++; fields[$1] = fields[$1] " " $2 }
        END { for (i = 1; i <= k; i++) print dir, order[i], n[order[i]] fields[order[i]] }'
}

# Option-struct tallies of every crate, in the working tree or (given a
# git ref) as of that ref.
knob_tallies() {
    if [ "$#" -eq 0 ]; then
        for dir in $(src_dirs); do
            # shellcheck disable=SC2046  # no crate path has spaces
            knobs $(find "$dir" -name '*.rs' | sort) | tally "$dir"
        done
    else
        for dir in $(src_dirs "$1"); do
            for f in $(git ls-tree -r --name-only "$1" -- "$dir" | grep '\.rs$'); do
                git show "$1:$f" | knobs
            done | tally "$dir"
        done
    fi
}

if [ "${1:-}" = "--knobs" ]; then
    if [ "${2:-}" = "--diff" ]; then
        ref=${3:?usage: tools/loc.sh --knobs --diff GIT-REF}
        git rev-parse --verify --quiet "$ref^{commit}" >/dev/null || {
            echo "tools/loc.sh: not a commit: $ref" >&2
            exit 2
        }
        { knob_tallies "$ref" | sed 's/^/before /'; knob_tallies | sed 's/^/after /'; } |
            awk -v ref="$(git rev-parse --short "$ref")" '
                { key = $2 " " $3; if (!(key in seen)) { seen[key] = 1; order[++k] = key }
                  count[$1, key] = $4 }
                END {
                    printf "%-22s %-20s %8s %8s %7s\n", "", "", ref, "tree", "delta"
                    for (i = 1; i <= k; i++) {
                        split(order[i], p, " ")
                        b = count["before", order[i]] + 0; a = count["after", order[i]] + 0
                        printf "%-22s %-20s %8d %8d %+7d\n", p[1], p[2], b, a, a - b
                        tb += b; ta += a
                    }
                    printf "%-22s %-20s %8d %8d %+7d\n", "total", "", tb, ta, ta - tb
                }'
    else
        knob_tallies | awk '{ printf "%-22s %-20s %3d ", $1, $2, $3
                              for (i = 4; i <= NF; i++) printf " %s", $i
                              printf "\n" }'
    fi
    exit 0
fi

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
    for dir in $({ src_dirs "$ref"; src_dirs; } | sort -u); do
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
for dir in $(src_dirs); do
    n=$(count_tree "$dir")
    printf '%-40s %6d\n' "$dir" "$n"
    total=$((total + n))
done
printf '%-40s %6d\n' total "$total"
