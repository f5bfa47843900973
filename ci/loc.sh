#!/usr/bin/env bash
# Rust line counts at a base revision and in the working tree, and the
# net change, split into non-test and test lines.
#
# Test lines are every line of a file under a `tests/` directory, plus
# every line of any other file from its first `#[cfg(test)]` onward.
# `perfbench/` (the benchmark package) is not counted.
#
# Usage: ci/loc.sh <base-rev>
set -euo pipefail
cd "$(dirname "$0")/.."
base=${1:?usage: ci/loc.sh <base-rev>}
git rev-parse --verify --quiet "$base^{commit}" >/dev/null \
    || { echo "error: unknown revision '$base'" >&2; exit 1; }

# The .rs paths at a revision, or in the working tree (tracked and
# untracked, minus ignored and deleted files) when the revision is empty.
rust_files() {
    if [[ -n $1 ]]; then
        git ls-tree -r --name-only "$1"
    else
        git ls-files --cached --others --exclude-standard
    fi | grep '\.rs$' | grep -v '^perfbench/' || true
}

# Prints "<non-test> <test>" line totals for a revision ("" = working tree).
tally() {
    local rev=$1 path in_tests non=0 tst=0 n t
    while IFS= read -r path; do
        if [[ -n $rev ]]; then
            src=(git show "$rev:$path")
        else
            [[ -f $path ]] || continue
            src=(cat -- "$path")
        fi
        in_tests=0
        [[ $path =~ (^|/)tests/ ]] && in_tests=1
        read -r n t < <("${src[@]}" | awk -v t="$in_tests" '
            /^[[:space:]]*#\[cfg\(test\)\]/ { t = 1 }
            { if (t) test++; else non++ }
            END { print non + 0, test + 0 }')
        non=$((non + n))
        tst=$((tst + t))
    done < <(rust_files "$rev")
    echo "$non $tst"
}

read -r base_non base_test < <(tally "$base")
read -r tree_non tree_test < <(tally "")
signed() { printf '%+d' "$1"; }
printf '%-14s %9s %9s %9s\n' "rust lines" non-test test total
printf '%-14s %9d %9d %9d\n' "$base" "$base_non" "$base_test" $((base_non + base_test))
printf '%-14s %9d %9d %9d\n' "working tree" "$tree_non" "$tree_test" $((tree_non + tree_test))
printf '%-14s %9s %9s %9s\n' "net" "$(signed $((tree_non - base_non)))" \
    "$(signed $((tree_test - base_test)))" \
    "$(signed $((tree_non + tree_test - base_non - base_test)))"
