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
# Examples: each examples/*.exe runs once to completion (together about
# 20 s); they double as end-to-end smokes of the public API.
for src in examples/*.ml; do
  ex=$(basename "$src" .ml)
  if ! dune exec "examples/$ex.exe" > /dev/null; then
    echo "check.sh: example $ex exited non-zero" >&2
    exit 1
  fi
  echo "check.sh: example $ex OK"
done
# Gated experiments: each quick run below is snapshotted twice with
# `nk bench` (its result table, latency percentiles and report notes).
# The two snapshots must match exactly (--tolerance 0 compares every cell
# as a string, so long sparkline cells are checked digit by digit): any
# divergence means nondeterminism leaked into the named layer. ce-scale
# covers the sharded CE; latency-breakdown Nkspan's stage accounting;
# cluster the live cross-host NSM migration, relay and spine shipping;
# incast the Homa grant pacer, the TCP->Homa handover pump and the
# post-switch RPC phase; slo federation order, SLO windows, alert firing
# and the flight-recorder dumps (the report notes embed a dump digest);
# fig10 the shared-memory NSM (Nsm_shmem), which no other gated run uses;
# table5 the TCP retransmission timers, whose SYN backoff firings make its
# tail (the timers the engine cancels, releases and compacts).
# One snapshot is then diffed against the committed BENCH_<id>.json
# baseline: the simulated results are deterministic, so drift beyond the
# default tolerance is a behaviour change that must be acknowledged by
# regenerating the baseline
# (`dune exec bin/nk.exe -- bench <id> -o BENCH_<id>.json`). Wall-clock is
# reported as a ratio only, never gated.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
for spec in \
  "ce-scale:the sharded CE" \
  "latency-breakdown:Nkspan" \
  "cluster:Nkfabric" \
  "incast:homastack or the handover" \
  "slo:Nkobs" \
  "fig10:the shared-memory NSM" \
  "table5:the TCP retransmission timers"; do
  id=${spec%%:*} layer=${spec#*:}
  dune exec bin/nk.exe -- bench "$id" -o "$tmp/$id.1"
  dune exec bin/nk.exe -- bench "$id" -o "$tmp/$id.2"
  if ! dune exec bin/nk.exe -- bench --compare "$tmp/$id.1,$tmp/$id.2" --tolerance 0; then
    echo "check.sh: $id runs diverged (nondeterminism in $layer)" >&2
    exit 1
  fi
  dune exec bin/nk.exe -- bench --compare "BENCH_$id.json,$tmp/$id.1"
  echo "check.sh: $id determinism and baseline OK"
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
if command -v ocamlformat >/dev/null 2>&1; then
  dune build @fmt
else
  echo "check.sh: ocamlformat not installed; skipping format check"
fi
echo "check.sh: OK"
