#!/usr/bin/env bash
# Non-test Go lines per top-level package (root, cmd/X, examples/X,
# internal/X) and in total — the number ROADMAP aim 2 asks every PR to report.
# Not counted: _test.go files, bench/ (the benchmark's own module) and
# internal/lint/testdata/ (linter fixtures, not program code). Lines are
# physical lines, comments and blanks included: a reduction made by deleting
# reason-giving comments or by reformatting is not one.
#
# Usage: scripts/loc.sh [rev]
#   no argument: the working tree (tracked and untracked-but-not-ignored files)
#   with a rev:  the working tree, that revision, and the delta per package
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

# count [rev] prints "package lines" rows. `git grep -c ''` counts every line
# of every matching file, in the working tree ("path:n") or in a revision
# ("rev:path:n"): the path is the field before the last either way.
count() {
  if [ $# -eq 0 ]; then
    git grep -c --untracked '' -- '*.go' || true
  else
    git grep -c '' "$1" -- '*.go' || true
  fi | awk -F: '
    { path = $(NF - 1) }
    path ~ /_test\.go$/ || path ~ /^bench\// || path ~ /^internal\/lint\/testdata\// { next }
    {
      n = split(path, p, "/")
      pkg = n == 1 ? "." : (n == 2 ? p[1] : p[1] "/" p[2])
      lines[pkg] += $NF
    }
    END { for (pkg in lines) print pkg, lines[pkg] }'
}

if [ $# -eq 0 ]; then
  count | sort | awk '
    { printf "%-28s %7d\n", $1, $2; total += $2 }
    END { printf "%-28s %7d\n", "total", total }'
  exit 0
fi

rev="$1"
git rev-parse --verify --quiet "$rev^{commit}" >/dev/null || { echo "loc.sh: unknown revision $rev" >&2; exit 2; }
{ count "$rev" | sed 's/^/old /'; count | sed 's/^/new /'; } | sort -s -k2,2 | awk -v rev="$rev" '
  !($2 in old) && !($2 in new) { names[++n] = $2 }
  $1 == "old" { old[$2] = $3 }
  $1 == "new" { new[$2] = $3 }
  END {
    printf "%-28s %7s %7s %7s\n", "package", substr(rev, 1, 7), "tree", "delta"
    for (i = 1; i <= n; i++) {
      pkg = names[i]
      printf "%-28s %7d %7d %+7d\n", pkg, old[pkg], new[pkg], new[pkg] - old[pkg]
      to += old[pkg]; tn += new[pkg]
    }
    printf "%-28s %7d %7d %+7d\n", "total", to, tn, tn - to
  }'
