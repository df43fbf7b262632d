#!/bin/sh
# Tier-1 verification gate: vet, build, and race-test the whole module.
# Run from anywhere; operates on the repo root.
set -eu
cd "$(dirname "$0")/.."

echo '>> gofmt -l'
UNFORMATTED=$(gofmt -l .)
if [ -n "$UNFORMATTED" ]; then
	echo "gofmt: files need formatting:" >&2
	echo "$UNFORMATTED" >&2
	exit 1
fi
echo '>> go vet ./...'
go vet ./...
# perfbench is its own module, so the root ./... never compiles it; vet
# it here so an API change it depends on fails verify, not the benchmark.
echo '>> go vet ./... (perfbench)'
(cd perfbench && go vet ./...)
echo '>> go build ./...'
go build ./...
echo '>> go test -race ./...'
go test -race ./...
echo '>> p4pvet ./...'
go run ./cmd/p4pvet -timing ./...
echo 'verify: OK'
