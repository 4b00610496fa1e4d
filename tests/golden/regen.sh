#!/bin/sh
# Regenerate the golden architectural record (tests/golden/record.txt)
# from a built tree. Run it only for an intended model change, and
# commit the resulting diff for review.
#
#   tests/golden/regen.sh [build-dir]     (default: build)
set -eu
here=$(cd "$(dirname "$0")" && pwd)
build=${1:-build}
cmake --build "$build" --target golden_record
"$build/tests/golden_record" > "$here/record.txt.tmp"
mv "$here/record.txt.tmp" "$here/record.txt"
echo "wrote $here/record.txt"
