#!/usr/bin/env bash
# Build the end-to-end benchmark from this checkout and run it, passing every
# argument through:  bash bench/e2e/run.sh --workload zipf-mixed --seed 1
# Build outputs, the compiler's temporary files and the result stay inside
# the checkout; no build cache outside it is used.
set -euo pipefail
cd "$(dirname "$0")/../.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "bench/e2e/run.sh: $(pwd) is not a checkout of the repository" >&2
  exit 2
fi
mkdir -p _build/tmp
export TMPDIR="$PWD/_build/tmp" DUNE_CACHE=disabled
dune build --root . --display quiet ./bench/e2e/main.exe
exec ./_build/default/bench/e2e/main.exe "$@"
