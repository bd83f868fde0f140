#!/usr/bin/env bash
# Fail when a test-name filter selects no test, so a CI step that picks its
# tests by name cannot pass by running nothing after a rename or deletion.
#
# usage: require-tests.sh <cargo test args>... -- <filter>...
set -euo pipefail
args=()
while [ "$#" -gt 0 ] && [ "$1" != "--" ]; do
  args+=("$1")
  shift
done
shift
for filter in "$@"; do
  count=$(cargo test -q "${args[@]}" -- "$filter" --list 2>/dev/null | grep -c ': test$' || true)
  if [ "$count" -eq 0 ]; then
    echo "require-tests: filter '$filter' selects no test (cargo test ${args[*]})" >&2
    exit 1
  fi
done
