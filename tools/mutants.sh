#!/usr/bin/env bash
# The mutation suite: each patch under tools/mutants/ re-creates one bug
# that named tests must catch. For every mutant this script applies the
# patch to a scratch `git worktree` of HEAD, runs the patch's test command
# and requires each test the patch names to fail with output that contains
# each of its expected strings. It then reverts the worktree for the next.
#
#   tools/mutants.sh                       # every mutant
#   tools/mutants.sh lone-wait-tie ...     # just these
#
# A patch starts with free text and header lines, then the diff
# (`git apply` skips everything before the first `diff --git`):
#
#   Requires: avx512vbmi avx512vl   optional; CPU flags the mutated code needs
#   Command: cargo test -p netsim --test wake_delivery
#   Kills: <test name as libtest prints it>     one line per test
#   Expect: <text the failure output contains>  one line per string
#
# A mutant fails the suite when its patch no longer applies, when a named
# test passes, does not run or fails without an expected string. One
# whose CPU flags are missing is skipped, never counted as killed. Builds
# share one CARGO_TARGET_DIR (default target/mutants); each mutant's
# output is kept there as logs/<name>.log.
set -uo pipefail

repo=$(git rev-parse --show-toplevel)
suite="$repo/tools/mutants"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$repo/target/mutants}"
export CARGO_TERM_COLOR=never
logs="$CARGO_TARGET_DIR/logs"
work="${TMPDIR:-/tmp}/davix-mutants-worktree"

if [ $# -gt 0 ]; then
    names=("$@")
else
    names=()
    for p in "$suite"/*.patch; do names+=("$(basename "$p" .patch)"); done
fi

drop_worktree() {
    git -C "$repo" worktree remove --force "$work" 2>/dev/null
    rm -rf "$work"
    git -C "$repo" worktree prune
}
drop_worktree
git -C "$repo" worktree add --detach --quiet "$work" HEAD || exit 1
trap drop_worktree EXIT
mkdir -p "$logs"

# `fail SURVIVED|FAILED <reason>`: the mutant does not count as killed.
fail() {
    printf '%-8s %s: %s\n' "$1" "$name" "${*:2}"
    survived=$((survived + 1))
}
field() { sed -n "s/^$1: //p" <<<"$header"; }

start=$SECONDS
killed=0 skipped=0 survived=0
for name in "${names[@]}"; do
    patch="$suite/$name.patch"
    if [ ! -f "$patch" ]; then
        fail FAILED "no such mutant"
        continue
    fi
    header=$(sed '/^diff --git /,$d' "$patch")
    cmd=$(field Command)
    mapfile -t kills < <(field Kills)
    mapfile -t expects < <(field Expect)
    read -ra flags <<<"$(field Requires)"
    if [ -z "$cmd" ] || [ ${#kills[@]} -eq 0 ] || [ ${#expects[@]} -eq 0 ]; then
        fail FAILED "needs a Command, a Kills and an Expect line"
        continue
    fi
    lacking=()
    for f in "${flags[@]}"; do grep -qw -- "$f" /proc/cpuinfo || lacking+=("$f"); done
    if [ ${#lacking[@]} -gt 0 ]; then
        echo "skipped  $name (no ${lacking[*]})"
        skipped=$((skipped + 1))
        continue
    fi
    if ! git -C "$work" apply --check "$patch" 2>"$logs/$name.log"; then
        fail FAILED "patch no longer applies (see $logs/$name.log)"
        continue
    fi
    git -C "$work" apply "$patch"
    t0=$SECONDS
    (cd "$work" && timeout 1200 bash -c "$cmd") >"$logs/$name.log" 2>&1
    git -C "$work" checkout --quiet -- .
    why=()
    for t in "${kills[@]}"; do
        if ! grep -qxF "test $t ... FAILED" "$logs/$name.log"; then
            grep -qxF "test $t ... ok" "$logs/$name.log" && why+=("$t passed") || why+=("$t did not run")
        fi
    done
    for e in "${expects[@]}"; do
        grep -qF -- "$e" "$logs/$name.log" || why+=("output lacks \"$e\"")
    done
    if [ ${#why[@]} -gt 0 ]; then
        fail SURVIVED "$(IFS=';'; echo "${why[*]}") (see $logs/$name.log)"
        continue
    fi
    killed=$((killed + 1))
    by=$(printf '%s, ' "${kills[@]}")
    echo "killed   $name ($((SECONDS - t0)) s) by ${by%, }"
done

echo "mutants: $killed killed, $skipped skipped, $survived survived or failed in $((SECONDS - start)) s"
[ "$survived" -eq 0 ]
