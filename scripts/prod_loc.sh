#!/usr/bin/env bash
# Prints the production line count: every non-test .go file under internal/
# and cmd/, counted with wc -l. Run from anywhere inside the repository.
set -euo pipefail
cd "$(dirname "$0")/.."
find internal cmd -name '*.go' ! -name '*_test.go' -print0 | sort -z |
	xargs -0 cat | wc -l
