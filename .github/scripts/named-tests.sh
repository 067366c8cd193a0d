#!/usr/bin/env bash
# named-tests.sh PATTERN [go test flags and packages...]
#
# Runs `go test -v -run PATTERN` and fails unless every |-separated
# alternative of PATTERN started at least one test. `go test` exits 0
# when -run matches nothing, so without this guard a renamed or deleted
# test would drop out of its CI step silently.
set -uo pipefail
pattern=$1
shift
out=$(go test -v -run "$pattern" "$@")
status=$?
if [ "$status" -ne 0 ]; then
  echo "$out"
  exit "$status"
fi
grep -E '^(--- SKIP|ok|PASS)' <<< "$out"
IFS='|' read -ra names <<< "$pattern"
for name in "${names[@]}"; do
  if ! grep -Eq "^=== RUN +[^ /]*${name}" <<< "$out"; then
    echo "no test matching '$name' ran"
    exit 1
  fi
done
