#!/usr/bin/env bash
# Net C++ lines per directory against a base revision.
#
# Usage: tools/net_loc.sh BASE      (from anywhere inside the repository)
#
# Diffs the working tree against the merge base of BASE and HEAD, counting
# only C++ sources (*.cpp, *.hpp, *.h, *.cc), and prints added, removed and
# net lines for src, tests, tools, examples and bench, then their total.
# New files count once they are tracked (`git add` or `git add -N`).
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: $0 BASE" >&2
  exit 2
fi
cd "$(git rev-parse --show-toplevel)"
base=$(git merge-base "$1" HEAD)

row() { printf '%-9s %8s %8s %8s\n' "$@"; }
signed() { if [ "$1" -gt 0 ]; then echo "+$1"; else echo "$1"; fi; }

row dir added removed net
total_added=0
total_removed=0
for dir in src tests tools examples bench; do
  read -r added removed < <(
    git diff --numstat "$base" -- "$dir/*.cpp" "$dir/*.hpp" "$dir/*.h" "$dir/*.cc" |
      awk '{a += $1; r += $2} END {print a + 0, r + 0}')
  row "$dir" "+$added" "-$removed" "$(signed $((added - removed)))"
  total_added=$((total_added + added))
  total_removed=$((total_removed + removed))
done
row total "+$total_added" "-$total_removed" "$(signed $((total_added - total_removed)))"
