#!/bin/sh
# Runs the named tests verbosely under -race and fails unless every one
# of them ran and passed. `go test -run` exits 0 when its pattern
# matches nothing, so without this check a renamed or moved test would
# drop out of CI silently.
#
# Usage: sh scripts/run_named_tests.sh "TestA TestB" ./pkg/a ./pkg/b
set -eu
names=$1
shift
pattern=$(echo $names | tr ' ' '|')
log=$(mktemp)
trap 'rm -f "$log"' EXIT
status=0
go test -race -count=1 -v -run "^($pattern)\$" "$@" >"$log" 2>&1 || status=$?
cat "$log"
[ "$status" -eq 0 ] || exit "$status"
for n in $names; do
	if ! grep -q -- "^--- PASS: $n (" "$log"; then
		echo "run_named_tests: $n did not run" >&2
		exit 1
	fi
done
