#!/bin/sh
# Repo check: tier-1 build + tests + static analysis, plus a format
# check when ocamlformat is available (the pinned version is in
# .ocamlformat; the build does not require it, so environments without it
# skip the formatting step).
set -e
cd "$(dirname "$0")/.."
dune build
dune runtest
# @lint runs nkscope (DESIGN.md §10), the one static analyzer: a single
# typedtree pass over the .cmt files the build produces for lib/ bin/ test/,
# read in place, so the tree is never compiled twice.
dune build @lint
# Determinism smokes: each quick experiment below runs twice and its CSVs
# are diffed; any divergence means nondeterminism leaked into the named
# layer. ce-scale covers the sharded CE; cluster the live cross-host NSM
# migration, relay and spine shipping; incast the Homa grant pacer, the
# TCP->Homa handover pump and the post-switch RPC phase; slo federation
# order, SLO windows, alert firing and the flight-recorder dumps (the
# report embeds a dump digest).
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
for spec in \
  "ce-scale:the sharded CE" \
  "cluster:Nkfabric" \
  "incast:homastack or the handover" \
  "slo:Nkobs"; do
  id=${spec%%:*} layer=${spec#*:}
  dune exec bin/nk.exe -- run "$id" --quick --csv > "$tmp/$id.1"
  dune exec bin/nk.exe -- run "$id" --quick --csv > "$tmp/$id.2"
  if ! diff -q "$tmp/$id.1" "$tmp/$id.2" >/dev/null; then
    echo "check.sh: $id runs diverged (nondeterminism in $layer):" >&2
    diff "$tmp/$id.1" "$tmp/$id.2" >&2 || true
    exit 1
  fi
  echo "check.sh: $id determinism smoke OK"
done
# Span tracing smoke: the quick latency-breakdown run is executed twice and
# the catapult JSON exports diffed — Nkspan derives every timestamp from
# virtual time, so same-seed traces must be byte-identical.
dune exec bin/nk.exe -- span --quick --catapult "$tmp/cat1" > /dev/null
dune exec bin/nk.exe -- span --quick --catapult "$tmp/cat2" > /dev/null
if ! diff -q "$tmp/cat1" "$tmp/cat2" >/dev/null; then
  echo "check.sh: latency-breakdown catapult exports diverged (nondeterminism in Nkspan):" >&2
  diff "$tmp/cat1" "$tmp/cat2" >&2 || true
  exit 1
fi
echo "check.sh: latency-breakdown catapult determinism smoke OK"
# Bench drift gate: fresh quick-mode snapshots are diffed against the
# committed BENCH_<id>.json baselines. The simulated metric tables are
# deterministic, so any drift beyond the tolerance is a behaviour change
# that must be acknowledged by regenerating the baseline
# (`dune exec bin/nk.exe -- bench <id> -o BENCH_<id>.json`). Wall-clock
# is reported as a ratio only, never gated.
for id in ce-scale latency-breakdown cluster incast slo; do
  snap=$(mktemp)
  dune exec bin/nk.exe -- bench "$id" -o "$snap"
  dune exec bin/nk.exe -- bench --compare "BENCH_$id.json,$snap"
  rm -f "$snap"
  echo "check.sh: bench baseline $id OK"
done
if command -v ocamlformat >/dev/null 2>&1; then
  dune build @fmt
else
  echo "check.sh: ocamlformat not installed; skipping format check"
fi
echo "check.sh: OK"
