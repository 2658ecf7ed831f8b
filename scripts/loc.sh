#!/usr/bin/env bash
# Prints the line counts that ROADMAP item 4 tracks: every *.cpp and *.hpp
# under src/ and tests/, per tree and in total.
#
# Usage: scripts/loc.sh [repo-root]   (default: the repo this script is in)
set -euo pipefail

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"

count() {
  find "$root/$1" -type f \( -name '*.cpp' -o -name '*.hpp' \) -print0 |
    xargs -0 cat | wc -l
}

src=$(count src)
tests=$(count tests)
echo "src   $src"
echo "tests $tests"
echo "total $((src + tests))"
