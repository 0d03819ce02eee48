#!/usr/bin/env bash
# Build pdm-serve and pdm-bench from this checkout, then run pdm-bench
# with the given arguments, e.g.
#   bash bench/e2e/run.sh --workload point_read --seed 1 --seconds 15 --trace 0
# Run it from the root of the repository. See bench/e2e/README.md.
set -euo pipefail
if [ ! -f dune-project ] || [ ! -f bin/pdm_serve.ml ]; then
  echo "run.sh: run from the root of a pdm_dict checkout" >&2
  exit 2
fi
# Keep every build product inside this checkout.
export DUNE_CACHE=disabled
dune build --root . --display quiet bin/pdm_serve.exe bench/e2e/pdm_bench.exe >&2
bench=_build/default/bench/e2e/pdm_bench.exe
# file_batch_read's disk files go to fresh directories under $TMPDIR,
# removed when pdm-bench exits; keep them inside this checkout too.
export TMPDIR="$PWD/_build/pdm-bench-tmp"
mkdir -p "$TMPDIR"
# One CPU for the generator and the daemons it starts, the generator at
# real-time priority, reset on fork so the daemons run as usual: see
# "Pinning" in README.md.
if taskset -c 0 chrt -R -f 1 true 2>/dev/null; then
  exec taskset -c 0 chrt -R -f 1 "$bench" "$@"
fi
echo "run.sh: taskset or chrt unavailable; running unpinned" >&2
exec "$bench" "$@"
