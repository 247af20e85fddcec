#!/usr/bin/env bash
# Build the benchmark program from this checkout's sources, then run it.
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Build output goes to .bench_build; build logs go to stderr so the
# program's last stdout line stays its JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: run from a full checkout of the repository (dune-project and lib/ missing)" >&2
  exit 2
fi
# Non-login shells may lack the opam switch on PATH.
command -v dune >/dev/null || eval "$(opam env 2>/dev/null)" || true
dune build --root . --build-dir .bench_build ./perfbench/main.exe 1>&2
exec .bench_build/default/perfbench/main.exe "$@"
